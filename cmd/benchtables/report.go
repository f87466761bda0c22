package main

import (
	"fmt"
	"os"

	"collabscope/internal/datasets"
	"collabscope/internal/experiments"
	"collabscope/internal/schema"
)

// report writes a self-contained markdown report with the regenerated
// tables — a live-run analogue of EXPERIMENTS.md that always reflects the
// current code.
func (r *runner) report(path string) {
	fh, err := os.Create(path)
	fatal(err)
	defer fh.Close()
	w := func(format string, args ...any) {
		_, err := fmt.Fprintf(fh, format, args...)
		fatal(err)
	}

	w("# collabscope — regenerated evaluation report\n\n")
	w("Signature dimensionality: %d. All numbers are deterministic.\n\n", r.cfg.Dim)

	reportTable2(w)
	reportTable3(w)
	r.reportTable4(w)
	r.reportDiscussion(w)

	fmt.Printf("report written to %s\n", path)
}

func reportTable2(w func(string, ...any)) {
	w("## Table 2 — dataset inventory\n\n")
	w("| schema | tables | attributes | linkable | unlinkable |\n")
	w("|---|---|---|---|---|\n")
	oc3 := datasets.OC3()
	ocfo := datasets.OC3FO()
	row := func(name string, s datasets.Stats) {
		w("| %s | %d | %d | %d | %d |\n", name, s.Tables, s.Attributes, s.Linkable, s.Unlinkable)
	}
	row("OC3", oc3.TotalStats())
	for _, name := range []string{datasets.NameOracle, datasets.NameMySQL, datasets.NameHANA} {
		row(name, oc3.SchemaStats(name))
	}
	row("OC3-FO", ocfo.TotalStats())
	row(datasets.NameFormula, ocfo.SchemaStats(datasets.NameFormula))
	w("\n")
}

func reportTable3(w func(string, ...any)) {
	w("## Table 3 — Cartesian sizes and annotated linkages\n\n")
	w("| schemas | cart. tables | cart. attributes | II | IS |\n")
	w("|---|---|---|---|---|\n")
	oc3 := datasets.OC3()
	byName := map[string]*schema.Schema{}
	for _, s := range oc3.Schemas {
		byName[s.Name] = s
	}
	ii, is := oc3.Truth.CountByType()
	w("| OC3 | %d | %d | %d | %d |\n",
		schema.CartesianTables(oc3.Schemas), schema.CartesianAttributes(oc3.Schemas), ii, is)
	for _, p := range [][2]string{
		{datasets.NameOracle, datasets.NameMySQL},
		{datasets.NameOracle, datasets.NameHANA},
		{datasets.NameMySQL, datasets.NameHANA},
	} {
		a, b := byName[p[0]], byName[p[1]]
		pii, pis := oc3.Truth.CountBetween(p[0], p[1])
		w("| %s–%s | %d | %d | %d | %d |\n", p[0], p[1],
			a.NumTables()*b.NumTables(), a.NumAttributes()*b.NumAttributes(), pii, pis)
	}
	w("\n")
}

func (r *runner) reportTable4(w func(string, ...any)) {
	w("## Table 4 — scoping-method AUC comparison (×100)\n\n")
	w("| method | ODA | dataset | AUC-F1 | AUC-ROC | AUC-ROC′ | AUC-PR |\n")
	w("|---|---|---|---|---|---|---|\n")
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
			w("| %s | %s | %s | %.2f | %.2f | %.2f | %.2f |\n",
				row.Method, row.ODA, row.Dataset,
				100*s.AUCF1, 100*s.AUCROC, 100*s.AUCROCp, 100*s.AUCPR)
		}
	}
	w("\n")
}

func (r *runner) reportDiscussion(w func(string, ...any)) {
	w("## §4.4 discussion numbers\n\n")
	w("| dataset | passes | cartesian | passes %% | pruned@v=0.01 | falsely pruned |\n")
	w("|---|---|---|---|---|---|\n")
	oc3, ocfo := r.encoded()
	for _, enc := range []*experiments.Encoded{oc3, ocfo} {
		d, err := experiments.Discuss(r.ctx, r.cfg, enc)
		fatal(err)
		w("| %s | %d | %d | %.2f | %d (%.2f %%) | %d |\n",
			enc.Dataset.Name, d.PassOperations, d.CartesianSize, d.PassOverCartPct,
			d.PrunedAtMinV, d.PrunedAtMinVPct, d.FalselyPrunedMin)
	}
	w("\n")
}
