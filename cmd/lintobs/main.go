// Command lintobs enforces three repository disciplines.
//
// Timing: time.Now belongs to internal/obs. Hot paths measure durations
// through obs.Stopwatch / obs.Registry.Clock, which keeps latency
// observable via WithMetrics and keeps the disabled path zero-cost; a
// stray time.Now in a loop is invisible to both.
//
// Kernels: per-pair linalg calls (SquaredDistance, CosineSimilarity,
// Distance) inside doubly nested loops rebuild the O(n²) panels the
// blocked kernel layer (DESIGN.md §11) exists for. Such call sites should
// use PairwiseSquaredDistancesInto / CosineSimilaritiesInto /
// RowSquaredDistancesInto instead; internal/linalg itself is exempt.
//
// Reach: every exported top-level name and exported method declared in a
// non-test file under internal/ must be named by some non-test file of
// the walk other than its own declaration. A name only tests reach is
// surface no production path needs: delete it, or move it into the test
// that uses it. The scan matches by name, so a name that collides with
// another used identifier goes unseen. Methods whose names belong to an
// interface (the repository's own, or error, fmt.Stringer, http.Handler,
// heap.Interface, errors.Is/As/Unwrap and the JSON marshalers) are
// skipped, since they are called through it.
//
// Usage:
//
//	lintobs ./...
//
// Scans non-test Go files under the given roots, skipping internal/obs for
// the timing check and internal/linalg for the kernel check. The reach
// check counts only references inside the walk, so narrower roots than the
// whole module report names that code outside them uses. A deliberate
// use or declaration is waived with a trailing "// lintobs:allow <reason>"
// comment on the offending line; a waiver without a reason waives nothing.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"./..."}
	}
	r, err := lint(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintobs:", err)
		os.Exit(1)
	}
	if len(r.time) > 0 {
		fmt.Fprintln(os.Stderr, "lintobs: time.Now outside internal/obs — use obs.NewStopwatch / obs.Registry.Clock,")
		fmt.Fprintln(os.Stderr, "lintobs: or waive a deliberate wall-clock use with `// lintobs:allow <reason>`:")
		for _, o := range r.time {
			fmt.Fprintln(os.Stderr, "\t"+o)
		}
	}
	if len(r.kernel) > 0 {
		fmt.Fprintln(os.Stderr, "lintobs: per-pair linalg call in a nested loop — use the blocked kernels")
		fmt.Fprintln(os.Stderr, "lintobs: (PairwiseSquaredDistancesInto / CosineSimilaritiesInto / RowSquaredDistancesInto),")
		fmt.Fprintln(os.Stderr, "lintobs: or waive a deliberate per-pair use with `// lintobs:allow <reason>`:")
		for _, o := range r.kernel {
			fmt.Fprintln(os.Stderr, "\t"+o)
		}
	}
	if len(r.unreached) > 0 {
		fmt.Fprintln(os.Stderr, "lintobs: exported name under internal/ that no non-test file names — delete it,")
		fmt.Fprintln(os.Stderr, "lintobs: move it into the test that uses it, or waive it with `// lintobs:allow <reason>`:")
		for _, o := range r.unreached {
			fmt.Fprintln(os.Stderr, "\t"+o)
		}
	}
	if len(r.time)+len(r.kernel)+len(r.unreached) > 0 {
		os.Exit(1)
	}
	fmt.Println("lintobs: clean")
}

// report holds one "<path>:<line>" entry per offender of each check; an
// unreached entry also names the declaration.
type report struct {
	time, kernel, unreached []string
}

// lint walks the non-test Go files under roots (a trailing "/..." is
// allowed) and runs the three checks over them.
func lint(roots []string) (report, error) {
	var r report
	reach := newReachScan()
	for _, root := range roots {
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			slash := filepath.ToSlash(path)
			if !strings.Contains(slash, "internal/obs/") {
				found, err := scanFile(path)
				if err != nil {
					return err
				}
				r.time = append(r.time, found...)
			}
			if !strings.Contains(slash, "internal/linalg/") {
				found, err := scanKernelBypass(path)
				if err != nil {
					return err
				}
				r.kernel = append(r.kernel, found...)
			}
			return reach.add(path, strings.Contains(slash, "internal/"))
		})
		if err != nil {
			return report{}, err
		}
	}
	r.unreached = reach.unreached()
	return r, nil
}

// waivedLines returns the lines of file that carry a lintobs:allow
// comment with a reason after it.
func waivedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	waived := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			_, reason, ok := strings.Cut(c.Text, "lintobs:allow")
			if ok && strings.TrimSpace(strings.TrimSuffix(reason, "*/")) != "" {
				waived[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return waived
}

// scanFile returns one "<path>:<line>" per unwaived time.Now call.
func scanFile(path string) ([]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	// Resolve the local name of the "time" import ("time" unless renamed).
	timeName := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "time" {
			continue
		}
		timeName = "time"
		if imp.Name != nil {
			timeName = imp.Name.Name
		}
	}
	if timeName == "" || timeName == "_" {
		return nil, nil
	}
	waived := waivedLines(fset, file)
	var offenders []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || ident.Name != timeName {
			return true
		}
		pos := fset.Position(call.Pos())
		if !waived[pos.Line] {
			offenders = append(offenders, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
		}
		return true
	})
	return offenders, nil
}

// kernelBypass is the set of per-pair linalg helpers that rebuild an
// O(n²) panel when called inside doubly nested loops.
var kernelBypass = map[string]bool{
	"SquaredDistance":  true,
	"CosineSimilarity": true,
	"Distance":         true,
}

// scanKernelBypass returns one "<path>:<line>" per unwaived per-pair
// linalg call at for/range nesting depth ≥ 2.
func scanKernelBypass(path string) ([]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	// Resolve the local name of the linalg import ("linalg" unless renamed).
	linalgName := ""
	for _, imp := range file.Imports {
		if !strings.HasSuffix(strings.Trim(imp.Path.Value, `"`), "internal/linalg") {
			continue
		}
		linalgName = "linalg"
		if imp.Name != nil {
			linalgName = imp.Name.Name
		}
	}
	if linalgName == "" || linalgName == "_" {
		return nil, nil
	}
	waived := waivedLines(fset, file)
	var offenders []string
	// Track loop nesting with an explicit stack mirroring ast.Inspect's
	// push (n != nil) / pop (n == nil) protocol.
	var stack []bool
	loopDepth := 0
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			if stack[len(stack)-1] {
				loopDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		isLoop := false
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			isLoop = true
		}
		stack = append(stack, isLoop)
		if isLoop {
			loopDepth++
		}
		if loopDepth < 2 {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !kernelBypass[sel.Sel.Name] {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || ident.Name != linalgName {
			return true
		}
		pos := fset.Position(call.Pos())
		if !waived[pos.Line] {
			offenders = append(offenders, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
		}
		return true
	})
	return offenders, nil
}

// interfaceMethods are the standard-library interface methods that
// internal types implement to be called through the interface: error,
// fmt.Stringer, http.Handler, heap.Interface, errors.Is/As/Unwrap and the
// JSON marshalers.
var interfaceMethods = []string{
	"Error", "String", "ServeHTTP", "Len", "Less", "Swap", "Push", "Pop",
	"Is", "As", "Unwrap", "MarshalJSON", "UnmarshalJSON",
}

// reachScan gathers, over one walk, the exported declarations of non-test
// files under internal/ and every identifier that could name them.
type reachScan struct {
	fset    *token.FileSet
	decls   []exportDecl
	uses    map[string][]token.Pos
	methods map[string]bool // names of interface methods
}

type exportDecl struct {
	name     string
	method   bool
	pos, end token.Pos // the whole declaration
	waived   bool
	at       string
}

func newReachScan() *reachScan {
	s := &reachScan{fset: token.NewFileSet(), uses: map[string][]token.Pos{}, methods: map[string]bool{}}
	for _, m := range interfaceMethods {
		s.methods[m] = true
	}
	return s
}

// add parses path, recording its identifiers as uses and, when internal
// is set, its exported declarations.
func (s *reachScan) add(path string, internal bool) error {
	file, err := parser.ParseFile(s.fset, path, nil, parser.ParseComments)
	if err != nil {
		return err
	}
	waived := waivedLines(s.fset, file)
	declare := func(name *ast.Ident, method bool, node ast.Node) {
		if !internal || !name.IsExported() {
			return
		}
		pos := s.fset.Position(name.Pos())
		s.decls = append(s.decls, exportDecl{
			name: name.Name, method: method, pos: node.Pos(), end: node.End(),
			waived: waived[pos.Line],
			at:     fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
		})
	}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declare(d.Name, d.Recv != nil, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declare(spec.Name, false, spec)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						declare(name, false, spec)
					}
				}
			}
		}
	}
	// Declaring identifiers (of functions, types, values, fields,
	// parameters and interface methods) name nothing else, so they are
	// not uses.
	declaring := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declaring[n.Name] = true
		case *ast.TypeSpec:
			declaring[n.Name] = true
		case *ast.ValueSpec:
			for _, name := range n.Names {
				declaring[name] = true
			}
		case *ast.Field:
			for _, name := range n.Names {
				declaring[name] = true
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					s.methods[name.Name] = true
				}
			}
		case *ast.Ident:
			if !declaring[n] {
				s.uses[n.Name] = append(s.uses[n.Name], n.Pos())
			}
		}
		return true
	})
	return nil
}

// unreached returns "<path>:<line> <name>" for each unwaived exported
// declaration that no identifier outside it names, in walk order.
func (s *reachScan) unreached() []string {
	var out []string
	for _, d := range s.decls {
		if d.waived || d.method && s.methods[d.name] {
			continue
		}
		used := false
		for _, p := range s.uses[d.name] {
			if p < d.pos || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			out = append(out, d.at+" "+d.name)
		}
	}
	return out
}
