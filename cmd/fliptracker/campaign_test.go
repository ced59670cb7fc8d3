package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed together with fn's error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	s := <-out
	r.Close()
	return s, runErr
}

// TestCampaignGolden pins the stdout of `fliptracker campaign` for both
// engines, streamed and analyzed. The golden files are fixed: a change to
// them is a change to the CLI's output.
func TestCampaignGolden(t *testing.T) {
	for _, tc := range []struct {
		args   string
		golden string
	}{
		{"-app kmeans -tests 24 -seed 1 -stream", "inject_stream.golden"},
		{"-app kmeans -mpi -ranks 3 -tests 24 -seed 1 -stream", "mpi_stream.golden"},
		{"-app kmeans -tests 8 -seed 1 -analyze", "inject_analyze.golden"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got, err := captureStdout(t, func() error { return cmdCampaign(strings.Fields(tc.args)) })
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from testdata/%s\n--- got ---\n%s--- want ---\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestMPICampaignReportsEarlyStop: an MPI campaign that the stopping rule
// ends before its test count says so, as a single-process one does.
func TestMPICampaignReportsEarlyStop(t *testing.T) {
	args := "-app kmeans -mpi -ranks 3 -tests 3000 -seed 1 -earlystop"
	got, err := captureStdout(t, func() error { return cmdCampaign(strings.Fields(args)) })
	if err != nil {
		t.Fatal(err)
	}
	if want := "early stop after 1016 of 3000 tests (CI within margin):\n"; !strings.Contains(got, want) {
		t.Errorf("stdout lacks %q:\n%s", want, got)
	}
}

// TestCampaignRejectsBadSpecs: the CLI checks its flags with the campaign
// service's spec rules and fails before it prints anything.
func TestCampaignRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-app kmeans -tests -5", "tests must be in"},
		{"-app kmeans -mpi -ranks 3 -tests -5", "tests must be in"},
		{"-app kmeans -mpi -ranks 3 -faultrank 9 -tests 5", "fault_rank 9 outside world"},
		{"-app kmeans -mpi -ranks 3 -target whole -tests 5", "population applies to the inject engine only"},
		{"-app kmeans -mpi -ranks 3 -region kmeans_a -tests 5", "population applies to the inject engine only"},
		{"-app kmeans -mpi -ranks 3 -instance 1 -tests 5", "population applies to the inject engine only"},
		{"-app kmeans -mpi -ranks 65 -tests 5", "ranks in [1, 64]"},
		{"-app kmeans -target internal -tests 5", "needs a region"},
		{"-app kmeans -target everything -tests 5", "unknown target"},
		{"-app nosuchapp -tests 5", "unknown app"},
		{"-app nosuchapp", "unknown app"},
		{"-app kmeans -tests 5 -analyze -journal unused.journal", "-analyze does not combine"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			got, err := captureStdout(t, func() error { return cmdCampaign(strings.Fields(tc.args)) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one containing %q", err, tc.want)
			}
			if got != "" {
				t.Errorf("printed before failing:\n%s", got)
			}
		})
	}
}
