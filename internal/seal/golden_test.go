package seal_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"collabscope/internal/checkpoint"
	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/encoder"
	"collabscope/internal/linalg"
	"collabscope/internal/schema"
)

// TestSealedWireGoldens pins the bytes of the three sealed formats — the
// model wire format, both encode envelopes and a checkpoint cell file — to
// sha256 digests of the bytes each format had before it sealed through
// this package. Field order, float formatting and the trailer rule all
// feed the digests. It also pins the remote encoder's cache key, which
// names the cells of persisted signature caches.
func TestSealedWireGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the trained model's bits are pinned on amd64; Go may fuse multiply-adds elsewhere")
	}
	rows := [][]float64{
		{1, 0.1, 0, 0.5},
		{0.2, 0.9, 0.1, 0.25},
		{0, 0.3, 1, 0.125},
		{0.4, 0, 0.2, 1},
	}
	x := linalg.NewDense(len(rows), len(rows[0]))
	ids := make([]schema.ElementID, len(rows))
	for i, row := range rows {
		copy(x.RowView(i), row)
		ids[i] = schema.AttributeID("S", "T", fmt.Sprintf("A%d", i))
	}
	model, err := core.Train(&embed.SignatureSet{IDs: ids, Matrix: x}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := model.WriteJSON(&wire); err != nil {
		t.Fatal(err)
	}
	fp, err := model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	req, err := encoder.MarshalRequest(encoder.EncodeRequest{Model: "m", Dim: 2, Texts: []string{"CUSTOMERS", "ORDERS ORDER_DATE"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := encoder.MarshalResponse(encoder.EncodeResponse{Model: "m", Dim: 2, Vectors: [][]float64{{0.5, -1.25}, {1e-9, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		V   float64 `json:"v"`
		TP  int     `json:"tp"`
		Tag string  `json:"tag"`
	}
	if err := store.Save("oc3/dim=768/collab/v=0.85", cell{V: 0.85, TP: 17, Tag: "oc3"}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cell files %v (%v), want exactly one", files, err)
	}
	onDisk, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"model WriteJSON", sum(wire.Bytes()), "c93b4cf2399b940cca558ab919bb611b03849c0da5d4195aa358a99c942386a5"},
		{"model Fingerprint", fp, "37db854e1cee91cd77052217569356e3aed0ba75fdca8ffad9a1b0e283da7486"},
		{"MarshalRequest", sum(req), "a4355ab307a6fbc14bb5bc8766f05e0588d77bb2820611544ed38fa8f4be65e4"},
		{"MarshalResponse", sum(resp), "0919ff2bb6cd6a28f19f86088164ede8af155262bae7afe6a5a0f71e68a6691a"},
		{"checkpoint cell", sum(onDisk), "9ea80591692cc1a56a42cd2c3398520d4f227c79fad1fddc4a34eb53406ebe5b"},
		{"encoder CacheKey", encoder.CacheKey("", 768, "CUSTOMERS"), "458f94b61bd7c6702f6d3579707ab2c8c0f8785a923f2f2a79542ada7d797f70"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}

func sum(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}
