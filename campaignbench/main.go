// Command campaignbench is FlipTracker's campaign benchmark. It generates one
// of three workloads from a seed, runs it for a fixed time, checks every
// campaign's outcomes against a reference, and prints the end-to-end metrics
// (tracing off) or the per-layer metrics (tracing on) as one JSON line.
//
// Usage (normally through run.sh, which builds this binary and ftserve):
//
//	campaignbench --workload plain-whole|analyzed-region|serve-mixed \
//	    --seed N --seconds S --trace 0|1 [--clients C] [--ftserve PATH]
//
// See README.md in this directory for the workloads, the metrics and how
// they map onto the layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line: whether every check passed,
// campaigns attempted and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the parsed command-line settings every workload receives.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	ftserve  string
	workDir  string
}

// workloadFunc runs one workload and fills r. Failures of individual
// campaigns or checks are counted in r; a returned error aborts the run.
type workloadFunc func(o opts, r *report) error

var workloads = map[string]workloadFunc{
	"plain-whole":     runPlainWhole,
	"analyzed-region": runAnalyzedRegion,
	"serve-mixed":     runServeMixed,
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "plain-whole, analyzed-region or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same campaigns")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced (per-layer) variant")
	flag.IntVar(&o.clients, "clients", runtime.NumCPU(), "serve-mixed closed-loop clients (at most nproc)")
	flag.StringVar(&o.ftserve, "ftserve", "", "ftserve binary for serve-mixed")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "scratch directory for journals and data dirs")
	flag.Parse()
	o.trace = trace == 1

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
}

func run(o opts) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have plain-whole, analyzed-region, serve-mixed)", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.clients < 1 || o.clients > runtime.NumCPU() {
		return fmt.Errorf("--clients %d outside [1, nproc=%d]: all load comes from one process on the measured machine", o.clients, runtime.NumCPU())
	}
	abs, err := filepath.Abs(o.workDir)
	if err != nil {
		return err
	}
	o.workDir = abs
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}

	r := newReport(o.trace)
	if err := wl(o, r); err != nil {
		return err
	}
	if o.trace && r.attempted > 0 {
		r.set("bench.failed_frac", float64(r.failed)/float64(r.attempted))
	}
	env := environment(o)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	for _, n := range r.notes {
		fmt.Printf("note %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Printf("FAIL %s\n", f)
	}
	res := result{
		Correct:   len(r.failures) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// report collects what a workload measured: campaign counts, failed checks
// and named metrics.
type report struct {
	attempted int
	failed    int
	failures  []string
	notes     []string
	metrics   map[string]metric
}

func newReport(trace bool) *report {
	r := &report{metrics: map[string]metric{}}
	if trace {
		// Every per-layer metric appears on every workload; a layer the
		// workload does not exercise reads 0.
		for _, m := range perLayerMetrics {
			r.metrics[m.name] = metric{0, m.unit}
		}
	}
	return r
}

func (r *report) set(name string, v float64) {
	unit := ""
	for _, m := range perLayerMetrics {
		if m.name == name {
			unit = m.unit
		}
	}
	for _, m := range endToEndMetrics {
		if m.name == name {
			unit = m.unit
		}
	}
	if unit == "" {
		panic("campaignbench: unregistered metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

// fail records one failed campaign or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEndMetrics are printed with --trace 0 on every workload.
var endToEndMetrics = []metricDef{
	{"ms_per_fault", "ms"},
	{"campaign_s_p50", "s"},
	{"campaign_s_p90", "s"},
	{"first_outcome_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are printed with --trace 1 on every workload.
var perLayerMetrics = []metricDef{
	{"interp.msteps_per_s", "Msteps/s"},
	{"interp.traced_msteps_per_s", "Msteps/s"},
	{"interp.exec_ms_per_fault", "ms"},
	{"interp.snapshot_us", "us"},
	{"interp.restore_us", "us"},
	{"inject.plan_ms_per_campaign", "ms"},
	{"inject.verify_us_per_fault", "us"},
	{"irstatic.classify_ns_per_fault", "ns"},
	{"irstatic.prune_frac", "fraction"},
	{"irstatic.build_ms", "ms"},
	{"core.analyze_ms_per_fault", "ms"},
	{"acl.ms_per_fault", "ms"},
	{"dddg.ms_per_fault", "ms"},
	{"patterns.ms_per_fault", "ms"},
	{"core.clean_run_ms", "ms"},
	{"core.index_build_ms", "ms"},
	{"trace.recs_per_fault", "count"},
	{"mpi.snapshot_world_ms_per_campaign", "ms"},
	{"mpi.restore_world_ms_per_world", "ms"},
	{"mpi.clean_world_ms", "ms"},
	{"journal.append_us_p50", "us"},
	{"journal.append_us_p99", "us"},
	{"journal.bytes_per_record", "bytes"},
	{"server.post_ms_p50", "ms"},
	{"server.record_gap_ms_p99", "ms"},
	{"server.done_line_ms_p50", "ms"},
	{"server.ndjson_bytes_per_record", "bytes"},
	{"server.refused_frac", "fraction"},
	{"campaign.unattributed_ms_per_fault", "ms"},
	{"go.alloc_mb_per_fault", "MB"},
	{"bench.trace_overhead_frac", "fraction"},
	{"bench.traced_ms_per_fault", "ms"},
	{"bench.layer_sum_error_frac", "fraction"},
	{"bench.failed_frac", "fraction"},
	{"bench.campaigns", "count"},
}

// ---- statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// digest is the FNV-64a stream digest the CI smoke test pins: the lines
// joined by "\n".
type digest struct {
	h    hash.Hash64
	rows int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) line(s []byte) {
	if d.rows > 0 {
		d.h.Write([]byte{'\n'})
	}
	d.h.Write(s)
	d.rows++
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// ---- environment ----

// environment records where a result was measured.
func environment(o opts) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"data_fs":    fsType(o.workDir),
		"clients":    o.clients,
	}
}

// commit names the measured source: the git commit when the benchmark runs
// in a git checkout, else "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir (journals and data dirs live
// there, so fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			f := strings.Fields(l)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// allocMB is the process's cumulative heap allocation so far.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
