// Command encodersmoke is the CI conformance gate for the pluggable
// encoder backends: it boots the stub encode server (the versioned wire
// format over loopback HTTP) around a hash encoder, runs the remote
// backend and the local hash encoder over OC3-FO, and demands
// bit-identical signature matrices AND identical end-to-end collaborative
// scoping verdicts. It then re-encodes through the warmed signature cache
// and demands zero additional requests. Any deviation exits non-zero, so
// `make encoder-smoke` can gate merges.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"collabscope/internal/core"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/encoder"
	"collabscope/internal/schema"
)

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "encodersmoke:", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fatal(fmt.Errorf(format, args...))
}

const dim = 256

func main() {
	d := datasets.OC3FO()
	hash := embed.NewHashEncoder(embed.WithDim(dim))

	stub := encoder.NewStubServer(embed.NewHashEncoder(embed.WithDim(dim)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	fatal(err)
	hs := &http.Server{Handler: stub}
	go hs.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on shutdown
	defer hs.Close()

	remote, err := encoder.New("remote:http://"+ln.Addr().String(), encoder.Config{Dim: dim})
	fatal(err)

	local, err := embed.EncodeSchemasContext(context.Background(), 0, hash, d.Schemas)
	fatal(err)
	cold, err := embed.EncodeSchemasContext(context.Background(), 0, remote, d.Schemas)
	fatal(err)
	compare("cold", local, cold)
	coldReqs := stub.Requests()
	if coldReqs == 0 {
		fatalf("cold encode issued no requests — the remote backend never hit the server")
	}

	warm, err := embed.EncodeSchemasContext(context.Background(), 0, remote, d.Schemas)
	fatal(err)
	compare("warm", local, warm)
	if extra := stub.Requests() - coldReqs; extra != 0 {
		fatalf("warm re-encode issued %d requests; the signature cache should absorb all of them", extra)
	}

	// End-to-end verdict conformance: identical signatures must yield
	// identical collaborative-scoping verdicts at a mid-grid variance.
	verdictsLocal := scope(local)
	verdictsRemote := scope(cold)
	if len(verdictsLocal) != len(verdictsRemote) {
		fatalf("verdict counts diverged: %d local vs %d remote", len(verdictsLocal), len(verdictsRemote))
	}
	for id, keep := range verdictsLocal {
		if verdictsRemote[id] != keep {
			fatalf("verdict for %s diverged: local %v, remote %v", id, keep, verdictsRemote[id])
		}
	}

	fmt.Printf("encodersmoke: %d schemas, %d elements, %d cold request(s), 0 warm — backends conformant\n",
		len(d.Schemas), totalLen(local), coldReqs)
}

// scope runs the collaborative-scoping assessment at v = 0.8 and returns
// the per-element linkability verdicts.
func scope(sets []*embed.SignatureSet) map[schema.ElementID]bool {
	ctx := context.Background()
	scoper, err := core.NewScoperContext(ctx, 0, sets, core.AssessConfig{})
	fatal(err)
	keep, err := scoper.ScopeContext(ctx, 0.8)
	fatal(err)
	return keep
}

func totalLen(sets []*embed.SignatureSet) int {
	n := 0
	for _, s := range sets {
		n += s.Len()
	}
	return n
}

func compare(arm string, want, got []*embed.SignatureSet) {
	if len(want) != len(got) {
		fatalf("%s: schema counts diverged: %d vs %d", arm, len(want), len(got))
	}
	for k := range want {
		if want[k].Len() != got[k].Len() {
			fatalf("%s: schema %d element counts diverged: %d vs %d", arm, k, want[k].Len(), got[k].Len())
		}
		for i := 0; i < want[k].Len(); i++ {
			if want[k].IDs[i] != got[k].IDs[i] {
				fatalf("%s: schema %d id %d diverged: %s vs %s", arm, k, i, want[k].IDs[i], got[k].IDs[i])
			}
			a, b := want[k].Matrix.RowView(i), got[k].Matrix.RowView(i)
			for j := range a {
				if a[j] != b[j] {
					fatalf("%s: signature of %s differs at dimension %d (%v vs %v)",
						arm, want[k].IDs[i], j, a[j], b[j])
				}
			}
		}
	}
}
