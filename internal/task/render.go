package task

import (
	"fmt"
	"strings"

	"fveval/internal/core"
	"fveval/internal/dataset/human"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/metrics"
)

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

// renderTableAGR lays out the AGR helper-generation table: one row
// per model, pass@k columns for all three judgment tiers. Syntax =
// the helper set parses and elaborates, Valid = every helper in the
// set is itself proved, Unlock = the stuck target is proved with the
// helpers assumed (the task's headline metric).
func renderTableAGR(p Params, groups []Group) (string, error) {
	var b strings.Builder
	b.WriteString("Table AGR: assertion-guided helper generation, pass@k (sampled decoding)\n")
	b.WriteString("Syntax = helper set compiles; Valid = every helper proved; Unlock = target proved under the helpers\n")
	cols := atK("Syn.", 9, p.Ks, syntaxK)
	cols = append(cols, atK("Valid", 9, p.Ks, partialK)...)
	cols = append(cols, atK("Unlock", 9, p.Ks, funcK)...)
	writeTable(&b, "", groups, func(Group) []column { return cols })
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
	fmt.Fprintf(&b, "%-18s %4s", "Model", "k")
	for _, g := range groups {
		fmt.Fprintf(&b, " %9s", g.Name)
	}
	b.WriteString("\n")
	for _, row := range firstRows(groups) {
		for _, k := range p.Ks {
			fmt.Fprintf(&b, "%-18s %4d", row.Model, k)
			for _, g := range groups {
				fmt.Fprintf(&b, " %9.3f", g.row(row.Model).FuncK[k])
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

// column is one table column: a header label, a width, and the value
// the column shows for a model's row.
type column struct {
	label string
	width int
	value func(core.Row) float64
}

// atK lays out one column per cut-off in ks for a pass@k metric,
// labelled label@k and read from the metric's per-cut-off map.
func atK(label string, width int, ks []int, metric func(core.Row) map[int]float64) []column {
	cols := make([]column, len(ks))
	for i, k := range ks {
		cols[i] = column{fmt.Sprintf("%s@%d", label, k), width, func(r core.Row) float64 { return metric(r)[k] }}
	}
	return cols
}

// The pass@k metrics a column can read.
func syntaxK(r core.Row) map[int]float64  { return r.SyntaxK }
func funcK(r core.Row) map[int]float64    { return r.FuncK }
func partialK(r core.Row) map[int]float64 { return r.PartialK }

// means lays out the greedy layout's four mean columns under the
// given labels.
func means(width int, syntax, fn, partial, bleu string) []column {
	return []column{
		{syntax, width, func(r core.Row) float64 { return r.Syntax }},
		{fn, width, func(r core.Row) float64 { return r.Func }},
		{partial, width, func(r core.Row) float64 { return r.Partial }},
		{bleu, width, func(r core.Row) float64 { return r.BLEU }},
	}
}

// writeTable writes a header and one line per model of the first
// group, with one block of columns per group (cols gives each group's
// block). sep opens every block, so a multi-setting table reads one
// setting per block; a model missing from a later group shows zeros.
func writeTable(b *strings.Builder, sep string, groups []Group, cols func(Group) []column) {
	blocks := make([][]column, len(groups))
	fmt.Fprintf(b, "%-18s", "Model")
	for i, g := range groups {
		blocks[i] = cols(g)
		b.WriteString(sep)
		for _, c := range blocks[i] {
			fmt.Fprintf(b, " %*s", c.width, c.label)
		}
	}
	b.WriteString("\n")
	for _, row := range firstRows(groups) {
		fmt.Fprintf(b, "%-18s", row.Model)
		for i, g := range groups {
			r := g.row(row.Model)
			b.WriteString(sep)
			for _, c := range blocks[i] {
				fmt.Fprintf(b, " %*.3f", c.width, c.value(r))
			}
		}
		b.WriteString("\n")
	}
}
