package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The compare tool reads two directories of run outputs (each file the
// standard output of one run) and prints, for every metric × workload, each
// side's median and quartiles, how often B beats A over all pairs of runs,
// and a verdict under the bound BENCHMARK.json fixes for the metric:
//
//   - improved: B wins at least 9/10 of the pairs and the medians differ
//     by more than A's interquartile range;
//   - unresolved: either side's spread (IQR over median) exceeds the
//     bound, unless every B run beats, or loses to, every A run;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unchanged: anything else.

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// runFile is one parsed run output.
type runFile struct {
	workload string
	out      output
}

func readRun(path string) (runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, err
	}
	defer f.Close()
	var rf runFile
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# workload="); ok {
			rf.workload, _, _ = strings.Cut(rest, " ")
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return runFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if rf.workload == "" {
		return runFile{}, fmt.Errorf("%s: no '# workload=' header line", path)
	}
	if err := json.Unmarshal([]byte(last), &rf.out); err != nil {
		return runFile{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return rf, nil
}

// readRuns returns workload → metric → values over every run file in dir.
func readRuns(dir string) (map[string]map[string][]float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		rf, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		m := out[rf.workload]
		if m == nil {
			m = map[string][]float64{}
			out[rf.workload] = m
		}
		for name, v := range rf.out.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out, nil
}

func compareDirs(w io.Writer, specPath, dirA, dirB string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	specs := map[string]metricSpec{}
	for _, s := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[s.Name] = s
	}
	a, err := readRuns(dirA)
	if err != nil {
		return err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return err
	}
	var workloads []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-14s %-26s %6s %30s %30s %5s %s\n", "workload", "metric", "bound", "A q1/median/q3", "B q1/median/q3", "win", "verdict")
	for _, wl := range workloads {
		var names []string
		for name := range a[wl] {
			if _, ok := b[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			s, ok := specs[name]
			if !ok {
				return fmt.Errorf("metric %s is not declared in %s", name, specPath)
			}
			xa, xb := a[wl][name], b[wl][name]
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			bound := "-"
			if s.Bound != nil {
				bound = fmt.Sprintf("%.3g", *s.Bound)
			}
			fmt.Fprintf(w, "%-14s %-26s %6s %30s %30s %5.2f %s\n", wl, name, bound,
				fmt.Sprintf("%.4g/%.4g/%.4g", a1, a2, a3), fmt.Sprintf("%.4g/%.4g/%.4g", b1, b2, b3),
				winFraction(xa, xb, s.Better), verdict(xa, xb, s))
		}
	}
	return nil
}

// winFraction is the share of (a, b) pairs in which b is better; ties
// count for neither side.
func winFraction(a, b []float64, better string) float64 {
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y > x) || (better != "higher" && y < x) {
				wins++
			}
		}
	}
	return float64(wins) / float64(len(a)*len(b))
}

func verdict(a, b []float64, s metricSpec) string {
	if s.Bound == nil {
		return "ungated"
	}
	bound := *s.Bound
	a1, a2, a3 := quartiles(a)
	_, b2, _ := quartiles(b)
	win, loss := winFraction(a, b, s.Better), winFraction(b, a, s.Better)
	// worse is how much worse B's median is, as a share of A's.
	worse := (b2 - a2) / math.Abs(a2)
	if s.Better == "higher" {
		worse = -worse
	}
	noisy := spread(a) > bound || spread(b) > bound
	switch {
	case win >= 0.9 && worse < 0 && math.Abs(b2-a2) > a3-a1:
		return "improved"
	case noisy && win < 1 && loss < 1:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "unchanged"
}
