package main

import (
	"path/filepath"
	"strings"
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

// TestFaultCommandsRejectBadBits: `fliptracker inject` and `fliptracker acl`
// refuse a -bit outside a word before they print anything. Bit 64 would flip
// nothing, and bit 300 would wrap through uint8 to bit 44.
func TestFaultCommandsRejectBadBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  func([]string) error
	}{{"inject", cmdInject}, {"acl", cmdACL}} {
		for _, bit := range []string{"64", "300", "-1"} {
			t.Run(tc.name+"/-bit_"+bit, func(t *testing.T) {
				got, err := captureStdout(t, func() error {
					return tc.cmd([]string{"-app", "cg", "-step", "1000", "-bit", bit})
				})
				if want := "outside [0, 63]"; err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("error %v, want one containing %q", err, want)
				}
				if got != "" {
					t.Errorf("printed before failing:\n%s", got)
				}
			})
		}
	}
}
