package task

import (
	"encoding/json"
	"fmt"

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

// Group finds a group by name; a missing group has no rows, so
// renderers degrade instead of panicking.
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

// Render produces the paper-layout artifact for the report: the table
// layouts for tables 1–5 and the pre-rendered text for static tasks
// and figures. Non-default parameter sets that the paper layouts
// cannot express (e.g. a single shot setting of Table 3) render as one
// generic block per group.
func (r *Report) Render() string {
	if r.Text != "" {
		return r.Text
	}
	switch r.Table {
	case 1:
		return renderTable1(r.Group("").Rows)
	case 2:
		return renderTable2(r.Group("").Rows)
	case 3:
		if len(r.Groups) == 2 {
			return renderTable3(r.Groups[0].Rows, r.Groups[1].Rows)
		}
		return r.renderGeneric("NL2SVA-Machine")
	case 4:
		return renderTable4(r.Group("").Rows)
	case 5:
		if len(r.Groups) == 2 && r.Groups[0].Name == "pipeline" && r.Groups[1].Name == "fsm" {
			return renderTable5(r.Groups[0].Rows, r.Groups[1].Rows)
		}
		return r.renderGeneric("Design2SVA")
	}
	return r.renderGeneric(r.Task)
}
