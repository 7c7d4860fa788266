// Quickstart: list the task registry, run NL2SVA-Human on a slice of
// the fleet through the single Run entry point, stream per-job
// progress, and print the dataset composition (Table 6) and the
// Table-1-style report.
package main

import (
	"context"
	"fmt"
	"log"

	"fveval"
)

func main() {
	fmt.Println("=== registered tasks ===")
	for _, t := range fveval.Tasks() {
		fmt.Printf("%-24s %s\n", t.Name, t.Title)
	}
	fmt.Println()

	run, err := fveval.Run(context.Background(), fveval.Request{
		Task:    "nl2sva-human",
		Params:  fveval.Params{Models: []string{"gpt-4o", "llama-3.1-70b"}},
		Options: fveval.Options{Limit: 20},
		Progress: func(ev fveval.Event) {
			if ev.Done == ev.Total {
				fmt.Printf("evaluated %d jobs\n\n", ev.Total)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := fveval.Run(context.Background(), fveval.Request{Task: "dataset-stats"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stats.Report.Render())
	fmt.Println(run.Report.Render())

	// Inspect one judged response end to end: the unified report keeps
	// the per-instance outcomes of greedy tasks.
	for _, o := range run.Report.Groups[0].Rows[0].Outcomes[:3] {
		fmt.Printf("instance %s: syntax=%v func=%v partial=%v bleu=%.3f\n",
			o.InstanceID, o.Syntax, o.Full, o.Partial, o.BLEU)
	}
	fmt.Printf("\nrun metadata: %d jobs in %d ms; %s\n",
		run.Stats.Jobs, run.Stats.WallMS, run.Stats.Cache)
}
