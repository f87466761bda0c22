package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanFlagsBareTimeNow(t *testing.T) {
	path := write(t, "hot.go", `package p

import "time"

func f() time.Time { return time.Now() }
`)
	offenders, err := scanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 1 {
		t.Fatalf("offenders = %v, want exactly one", offenders)
	}
}

func TestScanHonoursWaiver(t *testing.T) {
	path := write(t, "waived.go", `package p

import "time"

func f() time.Time { return time.Now() } // lintobs:allow deadline polling, not latency
`)
	offenders, err := scanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("waived line still flagged: %v", offenders)
	}
}

func TestScanResolvesRenamedImport(t *testing.T) {
	path := write(t, "renamed.go", `package p

import clock "time"

func f() clock.Time { return clock.Now() }
`)
	offenders, err := scanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 1 {
		t.Fatalf("renamed import not flagged: %v", offenders)
	}
}

func TestScanIgnoresOtherNow(t *testing.T) {
	path := write(t, "other.go", `package p

type fakeClock struct{}

func (fakeClock) Now() int { return 0 }

func f() int {
	var time fakeClock
	return time.Now()
}
`)
	// A local identifier named "time" without the time import must not trip
	// the scan (the file imports nothing).
	offenders, err := scanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("non-time Now flagged: %v", offenders)
	}
}

const kernelLoopSrc = `package p

import "collabscope/internal/linalg"

func pairwise(a, b *linalg.Dense) float64 {
	var s float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			s += linalg.SquaredDistance(a.RowView(i), b.RowView(j))
		}
	}
	return s
}
`

func TestScanKernelBypassFlagsNestedLoop(t *testing.T) {
	path := write(t, "nested.go", kernelLoopSrc)
	offenders, err := scanKernelBypass(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 1 {
		t.Fatalf("offenders = %v, want exactly one", offenders)
	}
}

func TestScanKernelBypassHonoursWaiver(t *testing.T) {
	src := strings.Replace(kernelLoopSrc,
		"linalg.SquaredDistance(a.RowView(i), b.RowView(j))",
		"linalg.SquaredDistance(a.RowView(i), b.RowView(j)) // lintobs:allow tiny fixed-size panel", 1)
	path := write(t, "waived.go", src)
	offenders, err := scanKernelBypass(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("waived line still flagged: %v", offenders)
	}
}

func TestScanKernelBypassAllowsSingleLoop(t *testing.T) {
	path := write(t, "single.go", `package p

import "collabscope/internal/linalg"

func rowScan(a *linalg.Dense, q []float64) float64 {
	var s float64
	for i := 0; i < a.Rows(); i++ {
		s += linalg.SquaredDistance(q, a.RowView(i))
	}
	return s
}
`)
	offenders, err := scanKernelBypass(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("depth-1 loop flagged: %v", offenders)
	}
}

func TestScanKernelBypassSequentialLoopsNotNested(t *testing.T) {
	path := write(t, "sequential.go", `package p

import "collabscope/internal/linalg"

func twoScans(a *linalg.Dense, q []float64) float64 {
	var s float64
	for i := 0; i < a.Rows(); i++ {
		_ = i
	}
	for j := 0; j < a.Rows(); j++ {
		s += linalg.Distance(q, a.RowView(j))
	}
	return s
}
`)
	offenders, err := scanKernelBypass(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("sequential loops mis-counted as nested: %v", offenders)
	}
}

func TestScanKernelBypassIgnoresOtherPackages(t *testing.T) {
	path := write(t, "other.go", `package p

type fake struct{}

func (fake) Distance(a, b []float64) float64 { return 0 }

func f(linalg fake, a, b []float64) float64 {
	var s float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s += linalg.Distance(a, b)
		}
	}
	return s
}
`)
	// No linalg import: the scan must not fire on a shadowing identifier.
	offenders, err := scanKernelBypass(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("non-linalg Distance flagged: %v", offenders)
	}
}

const wrapperSrc = `package p

import "context"

func ScopeContext(ctx context.Context, v float64) (int, error) { return 0, ctx.Err() }

// Scope drops the error of the form it wraps.
func Scope(v float64) int {
	n, _ := ScopeContext(context.Background(), v)
	return n
}
`

func TestContextRootFlagsWrapper(t *testing.T) {
	path := write(t, "wrapper.go", wrapperSrc)
	offenders, err := scanContextRoots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 1 || !strings.HasSuffix(offenders[0], "wrapper.go:9") {
		t.Fatalf("offenders = %v, want wrapper.go:9", offenders)
	}
	todo := write(t, "todo.go", strings.Replace(wrapperSrc, "context.Background()", "context.TODO()", 1))
	if offenders, err := scanContextRoots(todo); err != nil || len(offenders) != 1 {
		t.Fatalf("context.TODO offenders = %v, %v; want one", offenders, err)
	}
}

func TestContextRootHonoursWaiver(t *testing.T) {
	path := write(t, "waived.go", strings.Replace(wrapperSrc,
		"ScopeContext(context.Background(), v)",
		"ScopeContext(context.Background(), v) // lintobs:allow this API takes no context", 1))
	offenders, err := scanContextRoots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("waived line still flagged: %v", offenders)
	}
}

func TestContextRootSkipsPackageMain(t *testing.T) {
	path := write(t, "main.go", strings.Replace(wrapperSrc, "package p", "package main", 1))
	offenders, err := scanContextRoots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 0 {
		t.Fatalf("package main flagged: %v", offenders)
	}
}

// tree writes files (slash-separated paths relative to a fresh temp dir)
// and returns the dir.
func tree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func unreached(t *testing.T, files map[string]string) []string {
	t.Helper()
	r, err := lint([]string{tree(t, files)})
	if err != nil {
		t.Fatal(err)
	}
	return r.unreached
}

const helperSrc = `package p

// Helper is only called from a test.
func Helper() int { return 1 }
`

const helperTestSrc = `package p

import "testing"

func TestHelper(t *testing.T) { _ = Helper() }
`

func TestReachFlagsTestOnlyExport(t *testing.T) {
	got := unreached(t, map[string]string{
		"internal/p/p.go":      helperSrc,
		"internal/p/p_test.go": helperTestSrc,
	})
	if len(got) != 1 || !strings.HasSuffix(got[0], "p.go:4 Helper") {
		t.Fatalf("unreached = %v, want internal/p/p.go:4 Helper", got)
	}
}

func TestReachCountsUsesOutsideInternal(t *testing.T) {
	got := unreached(t, map[string]string{
		"internal/p/p.go": helperSrc,
		"cmd/c/main.go": `package main

import "example/internal/p"

func main() { _ = p.Helper() }
`,
	})
	if len(got) != 0 {
		t.Fatalf("a name cmd/ calls was flagged: %v", got)
	}
}

func TestReachIgnoresSelfReference(t *testing.T) {
	// A recursive function, a self-referencing type and a method nothing
	// calls reach only themselves; a method's receiver names its type.
	got := unreached(t, map[string]string{
		"internal/p/p.go": `package p

func Count(n int) int {
	if n == 0 {
		return 0
	}
	return 1 + Count(n-1)
}

type Node struct{ Next *Node }

type Pair struct{ a, b int }

func (p Pair) Sum() int { return p.a + p.b }
`,
	})
	want := []string{"Count", "Node", "Sum"}
	if len(got) != len(want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
	for i, name := range want {
		if !strings.HasSuffix(got[i], " "+name) {
			t.Fatalf("unreached = %v, want %v", got, want)
		}
	}
}

func TestReachSkipsInterfaceMethods(t *testing.T) {
	got := unreached(t, map[string]string{
		"internal/p/p.go": `package p

type Shape interface{ Area() float64 }

type Square struct{ side float64 }

func (s Square) Area() float64 { return s.side * s.side }

func (s Square) String() string { return "square" }

func NewShape() Shape { return Square{2} }
`,
		"cmd/c/main.go": `package main

import "example/internal/p"

func main() { _ = p.NewShape() }
`,
	})
	// Shape, Square and NewShape are named outside their declarations;
	// Area and String are called through interfaces.
	if len(got) != 0 {
		t.Fatalf("interface methods flagged: %v", got)
	}
}

func TestReachHonoursWaiverWithReason(t *testing.T) {
	src := strings.Replace(helperSrc, "func Helper() int { return 1 }",
		"func Helper() int { return 1 } // lintobs:allow reference the kernel tests check against", 1)
	if got := unreached(t, map[string]string{"internal/p/p.go": src}); len(got) != 0 {
		t.Fatalf("waived declaration still flagged: %v", got)
	}
	// A waiver must say why.
	bare := strings.Replace(helperSrc, "func Helper() int { return 1 }",
		"func Helper() int { return 1 } // lintobs:allow", 1)
	if got := unreached(t, map[string]string{"internal/p/p.go": bare}); len(got) != 1 {
		t.Fatalf("reasonless waiver accepted: %v", got)
	}
}

func TestReachChecksOnlyInternal(t *testing.T) {
	got := unreached(t, map[string]string{
		"er/er.go": `package er

// Exported is public API of a package outside internal/.
func Exported() {}
`,
	})
	if len(got) != 0 {
		t.Fatalf("a name outside internal/ was flagged: %v", got)
	}
}

// TestRepoIsClean runs every check over the whole repository — the same
// gate CI runs — so a time.Now, kernel-bypass, test-only-export or
// context-root regression fails here first.
func TestRepoIsClean(t *testing.T) {
	r, err := lint([]string{"../.."})
	if err != nil {
		t.Fatal(err)
	}
	for name, offenders := range map[string][]string{
		"time.Now": r.time, "kernel bypass": r.kernel, "unreached export": r.unreached,
		"context root": r.ctxroot,
	} {
		if len(offenders) != 0 {
			t.Errorf("lintobs %s offenders: %v", name, offenders)
		}
	}
}
