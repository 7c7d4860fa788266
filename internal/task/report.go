package task

import (
	"encoding/json"
	"fmt"
	"strings"

	"fveval/internal/core"
)

// Report is the unified result of any task run: one group of
// core.Rows per sub-setting, or pre-rendered text. It round-trips
// through JSON, so runs can be served, archived, and re-rendered
// without re-evaluating.
type Report struct {
	// Task names the registry entry that produced this report.
	Task  string `json:"task"`
	Title string `json:"title,omitempty"`
	// Table / Figure tie the report to the paper artifact (0 = none).
	Table  int  `json:"table,omitempty"`
	Figure int  `json:"figure,omitempty"`
	Kind   Kind `json:"kind"`
	// Params echoes the fully resolved parameters of the run.
	Params Params `json:"params"`
	// Groups carries per-model result rows, one group per sub-setting
	// (shot count, design category; single-setting tasks use one
	// unnamed group). Empty for purely textual artifacts.
	Groups []Group `json:"groups,omitempty"`
	// Text is the pre-rendered artifact for static tasks and figures.
	Text string `json:"text,omitempty"`
}

// Group is one sub-setting of a task ("0-shot", "pipeline", ...):
// one row per model.
type Group struct {
	Name string     `json:"name,omitempty"`
	Rows []core.Row `json:"rows"`
}

// Group finds a group by name; a missing group has no rows.
func (r *Report) Group(name string) Group {
	for _, g := range r.Groups {
		if g.Name == name {
			return g
		}
	}
	return Group{Name: name}
}

// Encode is the canonical wire encoding (indented JSON); the golden
// files under testdata pin this format.
func (r *Report) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeReport parses a Report previously produced by Encode (or any
// JSON encoding of the type).
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("task: decode report: %w", err)
	}
	return &r, nil
}

// row finds a model's row in the group (the zero row when the model
// is missing).
func (g Group) row(model string) core.Row {
	for _, r := range g.Rows {
		if r.Model == model {
			return r
		}
	}
	return core.Row{}
}

// Render produces the paper-layout artifact for the report: the table
// layouts for tables 1–5 and the pre-rendered text for static tasks
// and figures. Every layout is read off the report itself: the pass@k
// columns from Params.Ks, n from the rows, and one block per group
// for the multi-setting tables 3 and 5, whatever their number.
func (r *Report) Render() string {
	if r.Text != "" {
		return r.Text
	}
	var b strings.Builder
	switch r.Table {
	case 1:
		b.WriteString("Table 1: NL2SVA-Human (greedy decoding)\n")
		writeTable(&b, "", r.Groups, func(Group) []column { return means(8, "Syntax", "Func.", "Partial", "BLEU") })
	case 2:
		fmt.Fprintf(&b, "Table 2: NL2SVA-Human pass@k (n=%d samples)\n", r.samples())
		writeTable(&b, "", r.Groups, func(Group) []column { return r.passKColumns() })
	case 3:
		names := make([]string, len(r.Groups))
		for i, g := range r.Groups {
			names[i] = g.Name
		}
		fmt.Fprintf(&b, "Table 3: NL2SVA-Machine (%s)\n", strings.Join(names, " vs "))
		writeTable(&b, " |", r.Groups, func(g Group) []column {
			s := "(" + strings.TrimSuffix(g.Name, "-shot") + ")"
			return means(7, "Syn"+s, "Fun"+s, "Par"+s, "BLEU"+s)
		})
	case 4:
		fmt.Fprintf(&b, "Table 4: NL2SVA-Machine pass@k (3-shot, n=%d samples)\n", r.samples())
		writeTable(&b, "", r.Groups, func(Group) []column { return r.passKColumns() })
	case 5:
		b.WriteString("Table 5: Design2SVA\n")
		writeTable(&b, " |", r.Groups, func(g Group) []column {
			prefix := ""
			if g.Name != "" {
				prefix = strings.ToUpper(g.Name[:1]) + ":"
			}
			return append(atK(prefix+"Syn", 8, r.Params.Ks, syntaxK), atK(prefix+"Fn", 7, r.Params.Ks, funcK)...)
		})
	}
	return b.String()
}

// samples is n, the samples the report's pass@k rows were drawn from.
func (r *Report) samples() int {
	if rows := firstRows(r.Groups); len(rows) > 0 {
		return rows[0].Samples
	}
	return 0
}

// passKColumns lays out Tables 2 and 4: syntax at the largest
// cut-off, and functional and partial equivalence at every cut-off
// above 1 (at 1 when it is the only one).
func (r *Report) passKColumns() []column {
	top, above := 0, []int(nil)
	for _, k := range r.Params.Ks {
		top = max(top, k)
		if k > 1 {
			above = append(above, k)
		}
	}
	if above == nil {
		above = r.Params.Ks
	}
	cols := atK("Syntax", 9, []int{top}, syntaxK)
	cols = append(cols, atK("Func.", 8, above, funcK)...)
	return append(cols, atK("Partial.", 10, above, partialK)...)
}
