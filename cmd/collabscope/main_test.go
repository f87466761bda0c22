package main

import (
	"context"
	"flag"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"collabscope"
)

// must unwraps a (value, error) pair, panicking on error so each call
// stays one expression.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestParseDetectorSpecs(t *testing.T) {
	cases := map[string]string{
		"zscore":      "Z-Score",
		"lof":         "LOF(n=20)",
		"lof:5":       "LOF(n=5)",
		"pca":         "PCA(v=0.50)",
		"pca:0.7":     "PCA(v=0.70)",
		"autoencoder": "Autoencoder",
		"ae":          "Autoencoder",
		"knn:7":       "kNN(k=7)",
		"mahalanobis": "Mahalanobis",
		"isoforest":   "IsolationForest",
	}
	for spec, want := range cases {
		if got := parseDetector(spec).Name(); got != want {
			t.Errorf("parseDetector(%q) = %q, want %q", spec, got, want)
		}
	}
}

func TestParseMatcherSpecs(t *testing.T) {
	cases := map[string]string{
		"sim:0.4":      "SIM(0.4)",
		"cluster:20":   "CLUSTER(20)",
		"lsh:1":        "LSH(1)",
		"lsh-approx:3": "LSH*(3)",
		"coma:0.5":     "COMA(0.5)",
		"flood:0.8":    "FLOOD(0.8)",
		"name:0.7":     "NAME(0.7)",
		"sim":          "SIM(0.6)",
	}
	for spec, want := range cases {
		if got := parseMatcher(spec).Name(); got != want {
			t.Errorf("parseMatcher(%q) = %q, want %q", spec, got, want)
		}
	}
}

func TestLoadSchemas(t *testing.T) {
	dir := t.TempDir()
	sqlPath := filepath.Join(dir, "crm.sql")
	if err := os.WriteFile(sqlPath, []byte("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10));"), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "shop.json")
	js := `{"name":"shop","tables":[{"name":"u","attributes":[{"name":"x","type":"TEXT"}]}]}`
	if err := os.WriteFile(jsonPath, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	schemas := loadSchemas([]string{sqlPath, jsonPath})
	if len(schemas) != 2 {
		t.Fatalf("loaded %d schemas", len(schemas))
	}
	// DDL schema is named after the file; JSON keeps its embedded name.
	if schemas[0].Name != "crm" || schemas[1].Name != "shop" {
		t.Fatalf("names = %q, %q", schemas[0].Name, schemas[1].Name)
	}
	if schemas[0].NumAttributes() != 2 || schemas[1].NumAttributes() != 1 {
		t.Fatalf("attribute counts wrong")
	}
}

// parsedPipelineFlags registers the shared pipeline flags on a throwaway
// FlagSet and parses the given command line.
func parsedPipelineFlags(t *testing.T, args ...string) *pipelineSpec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	pf := pipelineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return pf
}

func TestNewPipelineDims(t *testing.T) {
	if parsedPipelineFlags(t).build().Encoder().Dim() != 768 {
		t.Fatal("default dim should be 768")
	}
	if parsedPipelineFlags(t, "-dim", "128").build().Encoder().Dim() != 128 {
		t.Fatal("dim override failed")
	}
	if parsedPipelineFlags(t, "-workers", "3").build().Parallelism() != 3 {
		t.Fatal("workers override failed")
	}
}

func TestPipelineFlagsEncoderAndEnrich(t *testing.T) {
	// The hash spec resolves with the flagged dimension.
	pf := parsedPipelineFlags(t, "-encoder", "hash", "-dim", "64")
	if pf.build().Encoder().Dim() != 64 {
		t.Fatal("-encoder hash should inherit -dim")
	}
	// Enrichment changes signatures; no enrichment matches the default.
	s, err := collabscope.ParseDDL("crm", "CREATE TABLE CUSTOMERS (CUST_ID INT PRIMARY KEY);")
	if err != nil {
		t.Fatal(err)
	}
	plain := must(parsedPipelineFlags(t, "-dim", "64").build().EncodeContext(context.Background(), s))
	enriched := must(parsedPipelineFlags(t, "-dim", "64", "-enrich", "lexicon,fk").build().EncodeContext(context.Background(), s))
	if plain.Len() != enriched.Len() {
		t.Fatalf("element counts diverged: %d vs %d", plain.Len(), enriched.Len())
	}
	same := true
	for i := 0; i < plain.Len() && same; i++ {
		a, b := plain.Matrix.RowView(i), enriched.Matrix.RowView(i)
		for j := range a {
			if a[j] != b[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("-enrich lexicon,fk left every signature unchanged")
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" http://a:8080, ,http://b:9090 ,")
	if len(got) != 2 || got[0] != "http://a:8080" || got[1] != "http://b:9090" {
		t.Fatalf("splitPeers = %v", got)
	}
	if splitPeers("") != nil {
		t.Fatal("empty spec should yield no peers")
	}
}

// TestScopeRejectsBadFlagsBeforeLoading runs subcommands in a subprocess:
// for scope, a malformed -detector fails even under the default method,
// and an unknown -method fails before any schema file is read; integrate,
// match and eval fail on a malformed -matcher or -index before reading
// any schema or -truth file.
func TestScopeRejectsBadFlagsBeforeLoading(t *testing.T) {
	if args := os.Getenv("COLLABSCOPE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"collabscope"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	a, b := writeSchemas(t, dir)
	missing, missingTruth := filepath.Join(dir, "missing.sql"), filepath.Join(dir, "missing-truth.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"scope", "-dim", "64", "-detector", "bogus:zz", a, b}, "bogus"},
		{[]string{"scope", "-dim", "64", "-detector", "bogus:zz", missing}, "bogus"},
		{[]string{"scope", "-dim", "64", "-method", "nope", missing}, `unknown method "nope"`},
		{[]string{"integrate", "-dim", "64", "-matcher", "bogus:zz", missing}, "bogus"},
		{[]string{"match", "-dim", "64", "-index", "nope", missing}, `unknown index kind "nope"`},
		{[]string{"eval", "-dim", "64", "-truth", missingTruth, "-matcher", "bogus:zz", missing}, "bogus"},
	} {
		out, err := runCLI(tc.args...)
		if err == nil {
			t.Errorf("%v: exit 0, want a failure naming %q\n%s", tc.args, tc.want, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "missing") {
			t.Errorf("%v: output does not name %q before loading:\n%s", tc.args, tc.want, out)
		}
	}
}

// runCLI runs the collabscope command with args in a subprocess, through
// TestScopeRejectsBadFlagsBeforeLoading's re-entry hook, and returns its
// combined output.
func runCLI(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestScopeRejectsBadFlagsBeforeLoading$")
	cmd.Env = append(os.Environ(), "COLLABSCOPE_TEST_ARGS="+strings.Join(args, "\n"))
	return cmd.CombinedOutput()
}

// writeSchemas writes two small overlapping DDL schemas, a and b, into dir.
func writeSchemas(t *testing.T, dir string) (a, b string) {
	t.Helper()
	a, b = filepath.Join(dir, "a.sql"), filepath.Join(dir, "b.sql")
	for path, ddl := range map[string]string{
		a: "CREATE TABLE customer (id INT PRIMARY KEY, email VARCHAR(20));",
		b: "CREATE TABLE client (cid INT PRIMARY KEY, email_address VARCHAR(20));",
	} {
		if err := os.WriteFile(path, []byte(ddl), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// TestFailedStageFailsTheCommand runs subcommands whose encoder or foreign
// model cannot work: each must exit non-zero and name the cause, never
// print an empty assessment or match as a result.
func TestFailedStageFailsTheCommand(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	a, b := writeSchemas(t, dir)
	bSchema := loadSchemas([]string{b})[0]
	writeModel := func(name string, opts ...collabscope.Option) string {
		t.Helper()
		m := must(collabscope.New(opts...).TrainModelContext(ctx, bSchema, 0.8))
		path := filepath.Join(dir, name)
		fh := must(os.Create(path))
		if err := m.WriteJSON(fh); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	model, narrow := writeModel("b.model.json"), writeModel("b64.model.json", collabscope.WithDimension(64))

	// An encoder URL nothing listens on: the port of a listener closed
	// before the run.
	ln := must(net.Listen("tcp", "127.0.0.1:0"))
	closed := "remote:http://" + ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"assess", "-encoder", closed, "-models", model, a}, []string{ln.Addr().String()}},
		{[]string{"match", "-encoder", closed, a, b}, []string{ln.Addr().String()}},
		{[]string{"assess", "-models", narrow, a}, []string{`"b"`, "64", "768"}},
	} {
		out, err := runCLI(tc.args...)
		if err == nil {
			t.Errorf("%v: exit 0, want a failure naming %q\n%s", tc.args, tc.want, out)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(string(out), want) {
				t.Errorf("%v: output does not name %q:\n%s", tc.args, want, out)
			}
		}
	}
}
