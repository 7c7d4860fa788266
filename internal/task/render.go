package task

import (
	"fmt"
	"strings"

	"fveval/internal/core"
	"fveval/internal/dataset/human"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/metrics"
)

// renderTable1 renders NL2SVA-Human greedy results in the paper's
// Table 1 layout.
func renderTable1(rows []core.Row) string {
	var b strings.Builder
	b.WriteString("Table 1: NL2SVA-Human (greedy decoding)\n")
	fmt.Fprintf(&b, "%-18s %8s %8s %8s %8s\n", "Model", "Syntax", "Func.", "Partial", "BLEU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8.3f %8.3f %8.3f %8.3f\n",
			r.Model, r.Syntax, r.Func, r.Partial, r.BLEU)
	}
	return b.String()
}

// renderTable2 renders NL2SVA-Human pass@k (Table 2 layout).
func renderTable2(rows []core.Row) string {
	return renderPassK("Table 2: NL2SVA-Human pass@k (n=5 samples)", rows)
}

// renderTable3 renders the 0-shot/3-shot machine comparison (Table 3).
func renderTable3(zeroShot, threeShot []core.Row) string {
	var b strings.Builder
	b.WriteString("Table 3: NL2SVA-Machine (0-shot vs 3-shot)\n")
	fmt.Fprintf(&b, "%-18s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"Model", "Syn(0)", "Fun(0)", "Par(0)", "BLEU(0)", "Syn(3)", "Fun(3)", "Par(3)", "BLEU(3)")
	byName := map[string]core.Row{}
	for _, r := range threeShot {
		byName[r.Model] = r
	}
	for _, z := range zeroShot {
		t := byName[z.Model]
		fmt.Fprintf(&b, "%-18s | %7.3f %7.3f %7.3f %7.3f | %7.3f %7.3f %7.3f %7.3f\n",
			z.Model, z.Syntax, z.Func, z.Partial, z.BLEU, t.Syntax, t.Func, t.Partial, t.BLEU)
	}
	return b.String()
}

// renderTable4 renders machine pass@k (Table 4 layout).
func renderTable4(rows []core.Row) string {
	return renderPassK("Table 4: NL2SVA-Machine pass@k (3-shot, n=5 samples)", rows)
}

func renderPassK(title string, rows []core.Row) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-18s %9s %8s %8s %10s %10s\n",
		"Model", "Syntax@5", "Func.@3", "Func.@5", "Partial.@3", "Partial.@5")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9.3f %8.3f %8.3f %10.3f %10.3f\n",
			r.Model, r.SyntaxK[5], r.FuncK[3], r.FuncK[5], r.PartialK[3], r.PartialK[5])
	}
	return b.String()
}

// renderTable5 renders Design2SVA results (Table 5 layout).
func renderTable5(pipeline, fsm []core.Row) string {
	var b strings.Builder
	b.WriteString("Table 5: Design2SVA\n")
	fmt.Fprintf(&b, "%-18s | %8s %8s %7s %7s | %8s %8s %7s %7s\n",
		"Model", "P:Syn@1", "P:Syn@5", "P:Fn@1", "P:Fn@5",
		"F:Syn@1", "F:Syn@5", "F:Fn@1", "F:Fn@5")
	byName := map[string]core.Row{}
	for _, r := range fsm {
		byName[r.Model] = r
	}
	for _, p := range pipeline {
		f := byName[p.Model]
		fmt.Fprintf(&b, "%-18s | %8.3f %8.3f %7.3f %7.3f | %8.3f %8.3f %7.3f %7.3f\n",
			p.Model, p.SyntaxK[1], p.SyntaxK[5], p.FuncK[1], p.FuncK[5],
			f.SyntaxK[1], f.SyntaxK[5], f.FuncK[1], f.FuncK[5])
	}
	return b.String()
}

// renderTable6 renders the NL2SVA-Human dataset statistics.
func renderTable6(Params, []Group) (string, error) {
	var b strings.Builder
	b.WriteString("Table 6: NL2SVA-Human composition\n")
	fmt.Fprintf(&b, "%-18s %12s %12s\n", "Name", "# Variations", "# Assertions")
	stats := human.Stats()
	totalV, totalA := 0, 0
	for _, cat := range human.Categories {
		v := stats[cat]
		fmt.Fprintf(&b, "%-18s %12d %12d\n", cat, v[0], v[1])
		totalV += v[0]
		totalA += v[1]
	}
	fmt.Fprintf(&b, "%-18s %12d %12d\n", "Total", totalV, totalA)
	return b.String(), nil
}

// renderFigure2 reports the token-length distributions of the NL
// specifications and reference assertions in NL2SVA-Human.
func renderFigure2(Params, []Group) (string, error) {
	insts, err := core.LoadHuman()
	if err != nil {
		return "", err
	}
	var nlLens, svaLens []float64
	for _, in := range insts {
		nlLens = append(nlLens, float64(metrics.CountTokens(in.NL)))
		svaLens = append(svaLens, float64(metrics.CountTokens(in.Reference.String())))
	}
	var b strings.Builder
	b.WriteString("Figure 2 (right): NL2SVA-Human token-length distributions\n")
	b.WriteString("NL specification lengths:\n")
	b.WriteString(metrics.NewHistogram(nlLens, 8).Render())
	b.WriteString("Reference SVA lengths:\n")
	b.WriteString(metrics.NewHistogram(svaLens, 8).Render())
	return b.String(), nil
}

// renderFigure3 reports the machine benchmark's length distributions.
func renderFigure3(p Params, _ []Group) (string, error) {
	insts := core.LoadMachine(p.Count)
	var nlLens, svaLens []float64
	for _, in := range insts {
		nlLens = append(nlLens, float64(metrics.CountTokens(in.NL)))
		svaLens = append(svaLens, float64(metrics.CountTokens(in.Reference.String())))
	}
	var b strings.Builder
	b.WriteString("Figure 3 (right): NL2SVA-Machine token-length distributions\n")
	b.WriteString("NL description lengths:\n")
	b.WriteString(metrics.NewHistogram(nlLens, 8).Render())
	b.WriteString("Reference SVA lengths:\n")
	b.WriteString(metrics.NewHistogram(svaLens, 8).Render())
	return b.String(), nil
}

// renderFigure4 reports the generated-RTL length distributions for
// both Design2SVA categories.
func renderFigure4(Params, []Group) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 4: synthetic RTL token-length distributions\n")
	for _, kind := range []string{"pipeline", "fsm"} {
		var lens []float64
		for _, inst := range rtlgen.Sweep96(kind) {
			lens = append(lens, float64(metrics.CountTokens(inst.Design)))
		}
		b.WriteString(kind + " design lengths:\n")
		b.WriteString(metrics.NewHistogram(lens, 8).Render())
	}
	return b.String(), nil
}

// renderFigure6 reproduces the BLEU-vs-functional-correctness
// correlation analysis from NL2SVA-Human greedy rows (the paper uses
// gpt-4o and llama-3.1-70b).
func renderFigure6(rows []core.Row) string {
	var b strings.Builder
	b.WriteString("Figure 6: BLEU vs formal functional equivalence (NL2SVA-Human)\n")
	for _, r := range rows {
		var xs, ys []float64
		for _, o := range r.Outcomes {
			xs = append(xs, o.BLEU)
			if o.Full {
				ys = append(ys, 1)
			} else {
				ys = append(ys, 0)
			}
		}
		corr := metrics.Pearson(xs, ys)
		fmt.Fprintf(&b, "%-18s corr(BLEU, Func) = %+.4f over %d instances\n",
			r.Model, corr, len(xs))
	}
	b.WriteString("(low correlation reproduces the paper's finding that BLEU does not capture formal equivalence)\n")
	return b.String()
}

// renderGeneric lists every group's rows in the greedy column layout
// (means) or a pass@k layout, for parameterizations outside the
// paper's fixed tables.
func (r *Report) renderGeneric(title string) string {
	var b strings.Builder
	for _, g := range r.Groups {
		if g.Name != "" {
			fmt.Fprintf(&b, "%s (%s)\n", title, g.Name)
		} else {
			b.WriteString(title + "\n")
		}
		sampled := len(g.Rows) > 0 && g.Rows[0].Samples > 0
		if sampled {
			ks := sortedKs(g.Rows)
			fmt.Fprintf(&b, "%-18s", "Model")
			for _, k := range ks {
				fmt.Fprintf(&b, " %9s", fmt.Sprintf("Func.@%d", k))
			}
			b.WriteString("\n")
			for _, row := range g.Rows {
				fmt.Fprintf(&b, "%-18s", row.Model)
				for _, k := range ks {
					fmt.Fprintf(&b, " %9.3f", row.FuncK[k])
				}
				b.WriteString("\n")
			}
		} else {
			fmt.Fprintf(&b, "%-18s %8s %8s %8s %8s\n", "Model", "Syntax", "Func.", "Partial", "BLEU")
			for _, row := range g.Rows {
				fmt.Fprintf(&b, "%-18s %8.3f %8.3f %8.3f %8.3f\n",
					row.Model, row.Syntax, row.Func, row.Partial, row.BLEU)
			}
		}
	}
	return b.String()
}

// renderTableAGR lays out the AGR helper-generation table: one row
// per model, pass@k columns for all three judgment tiers. Syntax =
// the helper set parses and elaborates, Valid = every helper in the
// set is itself proved, Unlock = the stuck target is proved with the
// helpers assumed (the task's headline metric).
func renderTableAGR(p Params, groups []Group) (string, error) {
	var b strings.Builder
	b.WriteString("Table AGR: assertion-guided helper generation, pass@k (sampled decoding)\n")
	b.WriteString("Syntax = helper set compiles; Valid = every helper proved; Unlock = target proved under the helpers\n")
	rows := firstRows(groups)
	ks := p.Ks
	if len(ks) == 0 {
		ks = sortedKs(rows)
	}
	fmt.Fprintf(&b, "%-18s", "Model")
	for _, label := range []string{"Syn.", "Valid", "Unlock"} {
		for _, k := range ks {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("%s@%d", label, k))
		}
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-18s", row.Model)
		for _, m := range []map[int]float64{row.SyntaxK, row.PartialK, row.FuncK} {
			for _, k := range ks {
				fmt.Fprintf(&b, " %9.3f", m[k])
			}
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// renderFigureR lays out the CEX-guided refinement figure: functional
// pass@k per model and cut-off, one column per refinement retry
// budget ("round=N" groups), so the refinement gain reads across each
// row.
func renderFigureR(p Params, groups []Group) (string, error) {
	var b strings.Builder
	b.WriteString("Figure R: NL2SVA-Machine pass@k vs CEX-guided refinement rounds (3-shot)\n")
	b.WriteString("Each column is a retry budget; failing candidates retry with the formal counterexample in the prompt\n")
	rows := firstRows(groups)
	ks := p.Ks
	if len(ks) == 0 {
		ks = sortedKs(rows)
	}
	fmt.Fprintf(&b, "%-18s %4s", "Model", "k")
	for _, g := range groups {
		fmt.Fprintf(&b, " %9s", g.Name)
	}
	b.WriteString("\n")
	for _, row := range rows {
		for _, k := range ks {
			fmt.Fprintf(&b, "%-18s %4d", row.Model, k)
			for _, g := range groups {
				v := 0.0
				for _, gr := range g.Rows {
					if gr.Model == row.Model {
						v = gr.FuncK[k]
						break
					}
				}
				fmt.Fprintf(&b, " %9.3f", v)
			}
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

// firstRows is the rows of a single-grid task's one group (none when
// the report carries no groups).
func firstRows(groups []Group) []core.Row {
	if len(groups) == 0 {
		return nil
	}
	return groups[0].Rows
}

func sortedKs(rows []core.Row) []int {
	seen := map[int]bool{}
	var ks []int
	for _, r := range rows {
		for k := range r.FuncK {
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j-1] > ks[j]; j-- {
			ks[j-1], ks[j] = ks[j], ks[j-1]
		}
	}
	return ks
}
