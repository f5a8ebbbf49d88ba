// Command table1 regenerates Table I of the paper at a chosen scale.
//
// Usage:
//
//	table1 -scale small            # laptop-scale reproduction (default)
//	table1 -scale medium           # minutes
//	table1 -scale paper            # the original instances; hours, 3 h timeouts
//	table1 -part mem|fid|all       # which half of the table
//	table1 -parallel 8             # fan simulations out across 8 workers
//	table1 -parallel 0             # one worker per CPU
//	table1 -seed 42                # pin per-job measurement seeds
//	table1 -csv                    # CSV instead of markdown
//
// The -parallel flag changes only the wall-clock time: rows are identical
// to the serial run apart from the timing columns. The resolved worker
// count and seed are echoed in the header (and to stderr), so published
// tables are reproducible from their own logs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/benchtab"
)

func main() {
	scale := flag.String("scale", benchtab.PresetSmall, "preset: small, medium, or paper")
	part := flag.String("part", "all", "table half: mem, fid, or all")
	csv := flag.Bool("csv", false, "emit CSV instead of markdown")
	parallel := flag.Int("parallel", 1, "simulation workers (0 = one per CPU)")
	seed := flag.Int64("seed", 0, "base seed for per-job measurement seeds")
	flag.Parse()

	suite, err := benchtab.NewSuite(*scale)
	if err != nil {
		fatal(err)
	}
	if err := suite.Validate(); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	opts := benchtab.RunOptions{
		Parallel: benchtab.Workers(*parallel),
		BaseSeed: *seed,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d simulations", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	}
	// Echo the resolved configuration so published numbers are reproducible
	// from their own logs.
	fmt.Fprintf(os.Stderr, "table1: scale=%s workers=%d seed=%d\n",
		suite.Name, opts.Parallel, opts.BaseSeed)

	var rows []benchtab.Row
	if *part == "mem" || *part == "all" {
		fmt.Fprintf(os.Stderr, "running memory-driven half (%d supremacy cases, %d workers)...\n",
			len(suite.Supremacy), opts.Parallel)
		r, err := suite.RunMemoryDriven(ctx, opts)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, r...)
	}
	if *part == "fid" || *part == "all" {
		fmt.Fprintf(os.Stderr, "running fidelity-driven half (%d Shor cases, %d workers)...\n",
			len(suite.Shor), opts.Parallel)
		r, err := suite.RunFidelityDriven(ctx, opts)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, r...)
	}
	if *part != "mem" && *part != "fid" && *part != "all" {
		fatal(fmt.Errorf("unknown -part %q", *part))
	}

	if *csv {
		fmt.Print(benchtab.FormatCSV(rows))
	} else {
		fmt.Printf("Table I (%s preset, workers=%d, seed=%d)\n\n%s",
			suite.Name, opts.Parallel, opts.BaseSeed, benchtab.FormatMarkdown(rows))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "table1:", err)
	os.Exit(1)
}
