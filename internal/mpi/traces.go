package mpi

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteRankTraces persists each rank's trace to dir as one file per MPI
// process ("traces are saved into a file for each MPI process", §IV-A), in
// the FTRC2 format, each readable with trace.ReadBinaryFile. Returns the
// written paths in rank order.
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
