package collabscope

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUpdateModelIncrementalLifecycle drives `collabscope update`'s engine
// through a schema's evolution: first run is a full fit, later runs apply
// diffs against the persisted state — and every round's model is
// byte-identical on the wire to a from-scratch TrainModel of the same
// schema revision (rows path: elements ≪ signature dimensions). Below d the
// state keeps no sufficient statistics, so its cell on disk holds no
// scatter.
func TestUpdateModelIncrementalLifecycle(t *testing.T) {
	pipe := New(WithDimension(64))
	dir := t.TempDir()
	const v = 0.8
	noScatter := func(what string) {
		t.Helper()
		cells, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(cells) != 1 {
			t.Fatalf("%s: want one state cell, got %v (%v)", what, cells, err)
		}
		b, err := os.ReadFile(cells[0])
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(`"scatter"`)) {
			t.Fatalf("%s: the state cell holds a scatter below d", what)
		}
	}

	rev1, err := ParseDDL("inv", `
		CREATE TABLE orders (id INT PRIMARY KEY, total DECIMAL(8,2), placed_at DATE);
		CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(40));`)
	if err != nil {
		t.Fatal(err)
	}
	up, err := pipe.UpdateModel(rev1, v, dir)
	if err != nil {
		t.Fatal(err)
	}
	if up.Resumed || up.Version != 1 || up.Added == 0 || up.Removed != 0 {
		t.Fatalf("first update: %+v, want fresh full fit at version 1", up)
	}
	want, err := pipe.TrainModel(rev1, v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, up.Model), modelBytes(t, want)) {
		t.Fatal("incremental first fit differs from from-scratch TrainModel")
	}
	noScatter("first update")

	// Evolution: a new table arrives, one column is dropped.
	rev2, err := ParseDDL("inv", `
		CREATE TABLE orders (id INT PRIMARY KEY, total DECIMAL(8,2));
		CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(40));
		CREATE TABLE shipments (id INT PRIMARY KEY, carrier VARCHAR(20), eta DATE);`)
	if err != nil {
		t.Fatal(err)
	}
	up2, err := pipe.UpdateModel(rev2, v, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !up2.Resumed || up2.Version != 2 {
		t.Fatalf("second update: %+v, want resumed state at version 2", up2)
	}
	if up2.Added == 0 || up2.Removed == 0 {
		t.Fatalf("second update delta %+v, want both additions and removals", up2)
	}
	want2, err := pipe.TrainModel(rev2, v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, up2.Model), modelBytes(t, want2)) {
		t.Fatal("incremental update differs from from-scratch TrainModel")
	}
	noScatter("second update")

	// Unchanged schema: a no-op diff, same version, same model.
	up3, err := pipe.UpdateModel(rev2, v, dir)
	if err != nil {
		t.Fatal(err)
	}
	if up3.Added+up3.Removed+up3.Changed != 0 || up3.Version != 2 {
		t.Fatalf("no-op update: %+v, want empty delta at version 2", up3)
	}
	if !bytes.Equal(modelBytes(t, up3.Model), modelBytes(t, want2)) {
		t.Fatal("no-op update changed the model")
	}
}

// TestAssessDeltaStateMatchesAssess pins `assess -delta`: verdicts equal
// plain Assess, and the second run over unchanged models reuses every
// persisted score column.
func TestAssessDeltaStateMatchesAssess(t *testing.T) {
	fig := DatasetFigure1()
	pipe := New(WithDimension(96))
	dir := t.TempDir()
	const v = 0.4

	local := fig.Schemas[0]
	var foreign []*Model
	for _, s := range fig.Schemas[1:] {
		m, err := pipe.TrainModel(s, v)
		if err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, m)
	}
	want := pipe.Assess(local, foreign)

	got, rep, err := pipe.AssessDeltaState(local, foreign, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused != 0 || rep.Rescored == 0 {
		t.Fatalf("cold delta run: %+v, want everything re-scored", rep)
	}
	if len(got) != len(want) {
		t.Fatalf("%d delta verdicts, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("delta verdict for %s = %v, plain Assess says %v", id, got[id], w)
		}
	}

	got, rep, err = pipe.AssessDeltaState(local, foreign, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rescored != 0 || rep.Reused == 0 {
		t.Fatalf("warm delta run: %+v, want everything reused", rep)
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("warm delta verdict for %s = %v, plain Assess says %v", id, got[id], w)
		}
	}
}
