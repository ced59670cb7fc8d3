// Command ftlint runs FlipTracker's determinism linter (internal/lint) over
// the engine packages whose outputs are pinned byte-identical across runs —
// campaign engines, the journal, the trace model, the orchestration layer,
// the fliptracker CLI — and exits nonzero on findings.
//
// Usage:
//
//	ftlint [package-dir ...]
//
// With no arguments, lints the default engine set relative to the current
// directory (run it from the repository root, as CI does).
package main

import (
	"fmt"
	"os"

	"fliptracker/internal/lint"
)

// defaultDirs is the engine set: every package whose output feeds a golden
// digest, a durable journal, a byte-identical checkpoint contract, or a
// paper artifact (stats decides the early-stop index, apps builds the
// workloads, predict fits Table IV), and the fliptracker CLI, whose
// campaign stdout is pinned by golden files.
var defaultDirs = []string{
	"internal/campaign",
	"internal/inject",
	"internal/mpi",
	"internal/journal",
	"internal/trace",
	"internal/core",
	"internal/interp",
	"internal/ir",
	"internal/coord",
	"internal/server",
	"internal/acl",
	"internal/dddg",
	"internal/patterns",
	"internal/stats",
	"internal/apps",
	"internal/predict",
	"cmd/fliptracker",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	findings, err := lint.Dirs(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ftlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
