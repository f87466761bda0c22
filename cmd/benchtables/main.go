// Command benchtables regenerates every table and figure of the paper's
// evaluation section on the re-created datasets.
//
// Usage:
//
//	benchtables -all
//	benchtables -table 4
//	benchtables -figure 7 -csv out/
//	benchtables -discussion
//
// Tables print as aligned text; figures print their data series and can
// also be written as CSV files for plotting.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"collabscope"
	"collabscope/internal/checkpoint"
	"collabscope/internal/datasets"
	"collabscope/internal/experiments"
	"collabscope/internal/metrics"
	"collabscope/internal/outlier"
	"collabscope/internal/schema"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate a table (2, 3, or 4)")
		figure     = flag.Int("figure", 0, "regenerate a figure (3, 5, 6, or 7)")
		discussion = flag.Bool("discussion", false, "regenerate the §4.4 discussion numbers")
		scale      = flag.Bool("scale", false, "run the synthetic scalability experiment (extension)")
		extended   = flag.Bool("extended", false, "include the repository's extra detectors and matchers")
		hetero     = flag.Bool("hetero", false, "run the synthetic heterogeneity-knob experiment (extension)")
		matchers   = flag.Bool("matchers", false, "print the matcher comparison summary (extension)")
		export     = flag.String("export", "", "export the datasets (DDL + JSON + linkages) into this directory")
		reportPath = flag.String("report", "", "write a regenerated markdown report to this file")
		all        = flag.Bool("all", false, "regenerate everything")
		fast       = flag.Bool("fast", false, "reduced settings (smaller dimension and grids)")
		dim        = flag.Int("dim", 0, "override signature dimensionality")
		csvDir     = flag.String("csv", "", "also write figure series as CSV files into this directory")
		ckptDir    = flag.String("checkpoint", "",
			"persist sweep cells into this directory; a rerun resumes where a killed run stopped")
		detector = flag.String("detector", "pca:0.5",
			"scoping detector for the Figure 5-6 curves: "+strings.Join(collabscope.Detectors(), ", ")+" (name or name:param)")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *fast {
		cfg = experiments.FastConfig()
		cfg.Dim = 384
	}
	if *dim > 0 {
		cfg.Dim = *dim
	}
	if *ckptDir != "" {
		store, err := checkpoint.Open(*ckptDir)
		fatal(err)
		cfg.Checkpoint = store
	}
	det, err := collabscope.ParseDetector(*detector)
	if err != nil {
		fatal(err)
	}

	r := &runner{ctx: context.Background(), cfg: cfg, csvDir: *csvDir, extended: *extended, detector: det}
	if *all {
		r.table2()
		r.table3()
		r.table4()
		r.figure3()
		r.figures56()
		r.figure7()
		r.discussion()
		return
	}
	ran := false
	switch *table {
	case 2:
		r.table2()
		ran = true
	case 3:
		r.table3()
		ran = true
	case 4:
		r.table4()
		ran = true
	}
	switch *figure {
	case 3:
		r.figure3()
		ran = true
	case 5, 6:
		r.figures56()
		ran = true
	case 7:
		r.figure7()
		ran = true
	}
	if *discussion {
		r.discussion()
		ran = true
	}
	if *scale {
		r.scale()
		ran = true
	}
	if *hetero {
		r.hetero()
		ran = true
	}
	if *matchers {
		r.matchers()
		ran = true
	}
	if *export != "" {
		r.export(*export)
		ran = true
	}
	if *reportPath != "" {
		r.report(*reportPath)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

type runner struct {
	ctx      context.Context
	cfg      experiments.Config
	csvDir   string
	extended bool
	detector outlier.Detector

	oc3, ocfo *experiments.Encoded
}

func (r *runner) encoded() (*experiments.Encoded, *experiments.Encoded) {
	if r.oc3 == nil {
		var err error
		r.oc3, err = experiments.Encode(r.ctx, r.cfg, datasets.OC3())
		fatal(err)
		r.ocfo, err = experiments.Encode(r.ctx, r.cfg, datasets.OC3FO())
		fatal(err)
	}
	return r.oc3, r.ocfo
}

func (r *runner) table2() {
	fmt.Println("Table 2: Overview of linkable and unlinkable schema elements")
	fmt.Printf("%-14s %7s %11s %9s %11s\n", "Schema", "Tables", "Attributes", "Linkable", "Unlinkable")
	oc3 := datasets.OC3()
	ocfo := datasets.OC3FO()
	row := func(name string, s datasets.Stats) {
		fmt.Printf("%-14s %7d %11d %9d %11d\n", name, s.Tables, s.Attributes, s.Linkable, s.Unlinkable)
	}
	row("OC3", oc3.TotalStats())
	for _, name := range []string{datasets.NameOracle, datasets.NameMySQL, datasets.NameHANA} {
		row("  "+name, oc3.SchemaStats(name))
	}
	row("OC3-FO", ocfo.TotalStats())
	row("  "+datasets.NameFormula, ocfo.SchemaStats(datasets.NameFormula))
	fmt.Println()
}

func (r *runner) table3() {
	fmt.Println("Table 3: Cartesian product size and annotated linkages")
	fmt.Printf("%-22s %12s %12s %5s %5s\n", "Schemas", "Cart.Table", "Cart.Attr", "II", "IS")
	oc3 := datasets.OC3()
	ocfo := datasets.OC3FO()
	ii, is := oc3.Truth.CountByType()
	fmt.Printf("%-22s %12d %12d %5d %5d\n", "OC3",
		schema.CartesianTables(oc3.Schemas), schema.CartesianAttributes(oc3.Schemas), ii, is)
	pairs := [][2]string{
		{datasets.NameOracle, datasets.NameMySQL},
		{datasets.NameOracle, datasets.NameHANA},
		{datasets.NameMySQL, datasets.NameHANA},
	}
	byName := map[string]*schema.Schema{}
	for _, s := range oc3.Schemas {
		byName[s.Name] = s
	}
	for _, p := range pairs {
		a, b := byName[p[0]], byName[p[1]]
		pii, pis := oc3.Truth.CountBetween(p[0], p[1])
		fmt.Printf("%-22s %12d %12d %5d %5d\n", "  "+p[0]+"-"+p[1],
			a.NumTables()*b.NumTables(), a.NumAttributes()*b.NumAttributes(), pii, pis)
	}
	fmt.Printf("%-22s %12d %12d %5d %5d\n", "OC3-FO",
		schema.CartesianTables(ocfo.Schemas), schema.CartesianAttributes(ocfo.Schemas), ii, is)
	fmt.Println("(per-pair rows sum to 39 II / 31 IS; the paper's total row of 36 IS is")
	fmt.Println(" inconsistent with its own pair rows — this repo reproduces the pair rows)")
	fmt.Println()
}

func (r *runner) table4() {
	fmt.Println("Table 4: AUC performance of scoping methods")
	fmt.Printf("%-14s %-13s %-8s %7s %8s %8s %7s\n",
		"Method", "ODA", "Dataset", "AUC-F1", "AUC-ROC", "AUC-ROC'", "AUC-PR")
	oc3, ocfo := r.encoded()
	for _, enc := range []*experiments.Encoded{oc3, ocfo} {
		table4 := experiments.Table4
		if r.extended {
			table4 = experiments.Table4Extended
		}
		rows, err := table4(r.ctx, r.cfg, enc)
		fatal(err)
		for _, row := range rows {
			s := row.Summary
			fmt.Printf("%-14s %-13s %-8s %7.2f %8.2f %8.2f %7.2f\n",
				row.Method, row.ODA, row.Dataset,
				100*s.AUCF1, 100*s.AUCROC, 100*s.AUCROCp, 100*s.AUCPR)
		}
	}
	fmt.Println()
}

func (r *runner) figure3() {
	fmt.Println("Figure 3: global distribution of signatures (1st principal component)")
	_, ocfo := r.encoded()
	bins := experiments.Figure3(r.cfg, ocfo, 12)
	fmt.Printf("%-18s %-18s %s\n", "bin low", "bin high", "counts by schema")
	for _, b := range bins {
		fmt.Printf("%-18.4f %-18.4f %v\n", b.Low, b.High, b.CountBySchema)
	}
	fmt.Println()
}

func (r *runner) figures56() {
	oc3, ocfo := r.encoded()
	for i, enc := range []*experiments.Encoded{oc3, ocfo} {
		figure := 5 + i
		fmt.Printf("Figure %d: best scoping vs collaborative scoping on %s\n", figure, enc.Dataset.Name)
		// The paper's best scoping method, PCA(v=0.5), is the default; the
		// -detector flag swaps in any registered detector.
		sc, err := experiments.ScopingCurves(r.ctx, r.cfg, enc, r.detector)
		fatal(err)
		cc, err := experiments.CollaborativeCurves(r.ctx, r.cfg, enc)
		fatal(err)
		for _, cs := range []experiments.CurveSet{sc, cc} {
			fmt.Printf("-- %s\n", cs.Label)
			fmt.Printf("%7s %9s %10s %7s %7s\n", "param", "accuracy", "precision", "recall", "F1")
			for _, e := range cs.Sweep {
				c := e.Confusion
				fmt.Printf("%7.2f %9.3f %10.3f %7.3f %7.3f\n",
					e.Param, c.Accuracy(), c.Precision(), c.Recall(), c.F1())
			}
			r.writeCSV(fmt.Sprintf("figure%d_%s_sweep.csv", figure, slug(cs.Label)),
				[]string{"param", "accuracy", "precision", "recall", "f1"},
				sweepRecords(cs.Sweep))
			r.writeCSV(fmt.Sprintf("figure%d_%s_roc.csv", figure, slug(cs.Label)),
				[]string{"fpr", "tpr"}, pointRecords(cs.ROC))
			r.writeCSV(fmt.Sprintf("figure%d_%s_pr.csv", figure, slug(cs.Label)),
				[]string{"recall", "precision"}, pointRecords(cs.PR))
		}
		fmt.Println()
	}
}

func (r *runner) figure7() {
	oc3, ocfo := r.encoded()
	for _, enc := range []*experiments.Encoded{oc3, ocfo} {
		fmt.Printf("Figure 7: matching ablation on %s (SOTA = original schemas)\n", enc.Dataset.Name)
		figure7 := experiments.Figure7
		if r.extended {
			figure7 = experiments.Figure7Extended
		}
		series, err := figure7(r.ctx, r.cfg, enc)
		fatal(err)
		for _, s := range series {
			fmt.Printf("-- %s  SOTA: PQ=%.3f PC=%.3f F1=%.3f RR=%.3f (%d pairs)\n",
				s.Matcher, s.SOTA.PQ, s.SOTA.PC, s.SOTA.F1, s.SOTA.RR, s.SOTA.Generated)
			fmt.Printf("%7s %7s %7s %7s %7s %7s\n", "v", "PQ", "PC", "F1", "RR", "pairs")
			var recs [][]string
			for i, v := range s.V {
				e := s.Evals[i]
				fmt.Printf("%7.2f %7.3f %7.3f %7.3f %7.3f %7d\n", v, e.PQ, e.PC, e.F1, e.RR, e.Generated)
				recs = append(recs, []string{
					f(v), f(e.PQ), f(e.PC), f(e.F1), f(e.RR), strconv.Itoa(e.Generated),
				})
			}
			r.writeCSV(fmt.Sprintf("figure7_%s_%s.csv", slug(enc.Dataset.Name), slug(s.Matcher)),
				[]string{"v", "pq", "pc", "f1", "rr", "pairs"}, recs)
		}
		fmt.Println()
	}
}

func (r *runner) discussion() {
	fmt.Println("Section 4.4 discussion numbers")
	oc3, ocfo := r.encoded()
	for _, enc := range []*experiments.Encoded{oc3, ocfo} {
		d, err := experiments.Discuss(r.ctx, r.cfg, enc)
		fatal(err)
		fmt.Printf("%-8s passes=%d cartesian=%d (%.2f%%) pruned@v=0.01: %d (%.2f%%), falsely pruned: %d\n",
			enc.Dataset.Name, d.PassOperations, d.CartesianSize, d.PassOverCartPct,
			d.PrunedAtMinV, d.PrunedAtMinVPct, d.FalselyPrunedMin)
	}
	fmt.Println()
}

func (r *runner) scale() {
	fmt.Println("Scalability (extension): synthetic scenarios with growing schema counts")
	fmt.Printf("%4s %9s %12s %12s %12s %12s %11s %11s\n",
		"k", "elements", "sum|Sk|^2", "|S|^2", "ratio", "collab_time", "collab_PR", "global_PR")
	points, err := experiments.Scalability(r.ctx, r.cfg, []int{2, 4, 6, 8, 10}, 2, 17)
	fatal(err)
	for _, p := range points {
		fmt.Printf("%4d %9d %12d %12d %12.3f %12s %11.3f %11.3f\n",
			p.K, p.Elements, p.SumLocalSq, p.UnionSq, p.ComplexityRatio(),
			p.CollabTime.Round(time.Millisecond), p.CollabAUCPR, p.GlobalAUCPR)
	}
	fmt.Println()
}

func (r *runner) hetero() {
	fmt.Println("Heterogeneity knobs (extension): collaborative vs global scoping AUC-PR")
	points, err := experiments.Heterogeneity(r.ctx, r.cfg, experiments.HeterogeneityGrid(23))
	fatal(err)
	fmt.Printf("%-24s %12s %12s %12s\n", "scenario", "collab_PR", "scoping_PR", "advantage")
	for _, p := range points {
		fmt.Printf("%-24s %12.3f %12.3f %+12.3f\n",
			p.Label, p.CollabAUCPR, p.ScopingAUCPR, p.Advantage())
	}
	fmt.Println()
}

// export writes the evaluation datasets as artifact files: one .sql (DDL)
// and one .json per schema, plus the annotated linkages — the offline
// analogue of the paper's artifact repository.
func (r *runner) export(dir string) {
	fatal(os.MkdirAll(dir, 0o755))
	ocfo := datasets.OC3FO()
	for _, s := range ocfo.Schemas {
		sqlFile, err := os.Create(filepath.Join(dir, s.Name+".sql"))
		fatal(err)
		fatal(s.WriteDDL(sqlFile))
		fatal(sqlFile.Close())
		jsonFile, err := os.Create(filepath.Join(dir, s.Name+".json"))
		fatal(err)
		fatal(s.WriteJSON(jsonFile))
		fatal(jsonFile.Close())
	}
	linkFile, err := os.Create(filepath.Join(dir, "linkages.json"))
	fatal(err)
	fatal(ocfo.Truth.WriteJSON(linkFile))
	fatal(linkFile.Close())
	fmt.Printf("exported %d schemas and %d linkages to %s\n",
		len(ocfo.Schemas), ocfo.Truth.Len(), dir)
}

func (r *runner) matchers() {
	oc3, ocfo := r.encoded()
	for _, enc := range []*experiments.Encoded{oc3, ocfo} {
		fmt.Printf("Matcher comparison on %s: SOTA vs best streamlined setting\n", enc.Dataset.Name)
		rows, err := experiments.CompareMatchers(r.ctx, r.cfg, enc)
		fatal(err)
		fmt.Printf("%-12s %26s %8s %26s\n", "matcher", "SOTA PQ/PC/F1", "best v", "scoped PQ/PC/F1")
		for _, row := range rows {
			fmt.Printf("%-12s %8.3f %8.3f %8.3f %8.2f %8.3f %8.3f %8.3f\n",
				row.Matcher, row.SOTA.PQ, row.SOTA.PC, row.SOTA.F1,
				row.BestV, row.Best.PQ, row.Best.PC, row.Best.F1)
		}
		fmt.Println()
	}
}

func (r *runner) writeCSV(name string, header []string, records [][]string) {
	if r.csvDir == "" {
		return
	}
	fatal(os.MkdirAll(r.csvDir, 0o755))
	fpath := filepath.Join(r.csvDir, name)
	fh, err := os.Create(fpath)
	fatal(err)
	defer fh.Close()
	w := csv.NewWriter(fh)
	fatal(w.Write(header))
	fatal(w.WriteAll(records))
	w.Flush()
	fatal(w.Error())
}

func sweepRecords(entries []metrics.SweepEntry) [][]string {
	var out [][]string
	for _, e := range entries {
		c := e.Confusion
		out = append(out, []string{
			f(e.Param), f(c.Accuracy()), f(c.Precision()), f(c.Recall()), f(c.F1()),
		})
	}
	return out
}

func pointRecords(points []metrics.Point) [][]string {
	var out [][]string
	for _, p := range points {
		out = append(out, []string{f(p.X), f(p.Y)})
	}
	return out
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 5, 64) }

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		default:
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	return string(out)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		if hint := collabscope.ExplainError(err); hint != "" {
			fmt.Fprintln(os.Stderr, "benchtables: ("+hint+")")
		}
		os.Exit(1)
	}
}
