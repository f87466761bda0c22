package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"collabscope/internal/match"
	"collabscope/internal/schema"
)

// verdictDigest fingerprints a keep-set: sha256 over the sorted
// "<element>\t<0|1>" lines.
func verdictDigest(keep map[schema.ElementID]bool) string {
	lines := make([]string, 0, len(keep))
	for id, linkable := range keep {
		v := "0"
		if linkable {
			v = "1"
		}
		lines = append(lines, id.String()+"\t"+v)
	}
	return digestLines(lines)
}

// pairDigest fingerprints a candidate pair set: sha256 over the sorted
// "<a>\t<b>" lines of the canonical pairs.
func pairDigest(pairs []match.Pair) string {
	lines := make([]string, len(pairs))
	for i, p := range pairs {
		p = p.Canonical()
		lines[i] = p.A.String() + "\t" + p.B.String()
	}
	return digestLines(lines)
}

func digestLines(lines []string) string {
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// goldens are the seed-1 digests of the full-size workloads.
type goldens struct {
	Seed       int64 `json:"seed"`
	ScopeBatch struct {
		Verdicts string `json:"verdicts"`
		Pairs    string `json:"pairs"`
	} `json:"scope_batch"`
	// EvolveChurn maps a timed round number (every churnCheckEvery-th) to
	// the verdict digest after that round.
	EvolveChurn map[string]string `json:"evolve_churn"`
}

//go:embed testdata/goldens.json
var goldensJSON []byte

// golden returns the goldens that apply to a run, or nil: they pin only
// the full-size inputs of their seed.
func golden(sz size, seed int64) (*goldens, error) {
	if sz != fullSize {
		return nil, nil
	}
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("parse goldens: %w", err)
	}
	if g.Seed != seed {
		return nil, nil
	}
	return &g, nil
}
