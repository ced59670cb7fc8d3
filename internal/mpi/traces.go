package mpi

import (
	"fmt"
	"os"
	"path/filepath"

	"fliptracker/internal/trace"
)

// WriteRankTraces persists each rank's trace to dir as one file per MPI
// process ("traces are saved into a file for each MPI process", §IV-A), in
// the FTRC2 format. Returns the written paths in rank order.
func (r *Result) WriteRankTraces(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(r.Ranks))
	for _, rr := range r.Ranks {
		path := filepath.Join(dir, fmt.Sprintf("rank-%04d.trace", rr.Rank))
		if err := rr.Trace.WriteBinaryFile(path); err != nil {
			return nil, fmt.Errorf("mpi: rank %d: %w", rr.Rank, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// ReadRankTraces loads traces written by WriteRankTraces.
func ReadRankTraces(paths []string) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, 0, len(paths))
	for _, p := range paths {
		t, err := trace.ReadBinaryFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
