package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"collabscope/internal/schema"
	"collabscope/internal/seal"
)

// FuzzReadModelJSON feeds arbitrary (and corrupted) payloads to the wire
// reader. The contract under fuzzing: never panic, never allocate beyond
// the wire caps, and every ACCEPTED model must be fully usable — it
// round-trips through WriteJSON/ReadModelJSON verdict-identically and can
// score a signature without crashing. Random bytes almost never carry a
// matching hash trailer, so each input that decodes as a model object is
// also stamped with the current version, re-sealed and read again: the
// shape and domain checks behind the trailer stay under the fuzzer.
func FuzzReadModelJSON(f *testing.F) {
	// A genuine v1 payload as the structured seed.
	ids := []schema.ElementID{
		schema.AttributeID("S", "T", "A"),
		schema.AttributeID("S", "T", "B"),
		schema.AttributeID("S", "T", "C"),
	}
	m, err := Train(setFromRows(ids, [][]float64{{1, 0, 0.5}, {0, 1, 0.25}, {0.5, 0.25, 1}}), 0.9)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := m.WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Retired v0, truncations, and hostile shapes.
	f.Add([]byte(`{"schema":"S","variance":0.7,"dim":2,"mean":[0.5,0.5],"components":[[1,0]],"range":0.01}`))
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(`{"version":1,"schema":"S","dim":2,"mean":[0,0],"components":[[1,0]],"range":0.1,"sum":"deadbeef"}`))
	f.Add([]byte(`{"schema":"S","dim":1048576,"mean":[0],"components":[[0]],"range":1e308}`))
	f.Add([]byte(`{"schema":"S","dim":2,"mean":[0,0],"components":[[0,0],[0]],"range":-1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAccepted(t, data)
		var wire modelJSON
		if json.Unmarshal(data, &wire) != nil {
			return
		}
		wire.Version = WireVersion
		if seal.Seal(&wire, &wire.Sum) != nil {
			return
		}
		resealed, err := json.Marshal(&wire)
		if err != nil {
			t.Fatalf("sealed wire object does not re-encode: %v", err)
		}
		checkAccepted(t, resealed)
	})
}

// checkAccepted reads one payload and, if the reader accepts it, asserts
// the model scores a signature and survives a write/read round trip.
func checkAccepted(t *testing.T, data []byte) {
	t.Helper()
	m, err := ReadModelJSON(bytes.NewReader(data))
	if err != nil {
		return // rejected payloads only need to fail cleanly
	}
	// Accepted models must be usable: scoring must not panic...
	sig := make([]float64, len(m.pca.Mean))
	_ = m.Accepts(sig)
	// ...and the model must survive a write/read round trip.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("accepted model does not re-serialise: %v", err)
	}
	back, err := ReadModelJSON(&buf)
	if err != nil {
		t.Fatalf("round trip of accepted model rejected: %v", err)
	}
	if back.Schema != m.Schema || back.Variance != m.Variance ||
		back.Range != m.Range || back.Components() != m.Components() {
		t.Fatalf("round trip changed the model: %+v vs %+v", back, m)
	}
}
