package main

import (
	"path/filepath"
	"testing"

	"fliptracker/internal/core"
	"fliptracker/internal/trace"
)

// TestTraceCommandWritesReadableFile checks that `fliptracker trace` writes
// a file the binary trace reader opens, holding the whole clean trace.
func TestTraceCommandWritesReadableFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "km.trace")
	if err := cmdTrace([]string{"-app", "kmeans", "-out", path}); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadBinaryFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	an, err := core.NewAnalyzer("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := an.CleanTrace()
	if err != nil {
		t.Fatal(err)
	}
	if got.Recs.Len() == 0 || !got.Recs.Equal(&clean.Recs) {
		t.Fatalf("file holds %d records, clean trace %d (or they differ)", got.Recs.Len(), clean.Recs.Len())
	}
}
