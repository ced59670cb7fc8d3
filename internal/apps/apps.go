// Package apps implements the ten workloads of the paper's evaluation
// (§V-A): CG, MG, IS, LU, BT, SP, DC and FT from the NAS Parallel
// Benchmarks, the LULESH proxy application, and KMEANS from Rodinia — all
// re-implemented from scratch against the reproduction's IR with scaled-down
// problem sizes (the paper uses Class S and "-s 3", the smallest published
// inputs; ours are one notch smaller again so interpreter-based injection
// campaigns stay tractable).
//
// Every workload keeps the algorithmic skeleton that carries its resilience
// patterns: CG's repeated dot-product additions and sprnvc-style scratch
// arrays, MG's smoother accumulations, IS's key shifting, KMEANS's
// min-distance conditionals, LULESH's hourglass-force aggregation and
// "%12.6e" output truncation, and so on. Each program is annotated with the
// code regions of Table I and a whole-main-loop region for the
// per-iteration study of Figure 6.
package apps

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// DefaultSeed is the RNG seed every machine gets, making all runs of an app
// bit-identical apart from injected faults (§V-B determinism).
const DefaultSeed = 20180911

// App is one registered workload.
type App struct {
	// Name is the benchmark name, lowercase ("cg", "lulesh", ...).
	Name string
	// Description is a one-line summary.
	Description string
	// Regions lists the Table I code-region names in source order.
	Regions []string
	// MainLoop is the whole-main-loop pseudo region for Figure 6.
	MainLoop string
	// Tol is the relative tolerance of the verification phase.
	Tol float64
	// MainIterations is the number of main-loop iterations the program
	// runs (drives the per-iteration study).
	MainIterations int

	build func(mpi bool) *ir.Program

	once     sync.Once
	prog     *ir.Program
	buildErr error

	mpiOnce sync.Once
	mpiProg *ir.Program
	mpiErr  error

	refOnce sync.Once
	ref     []trace.OutVal
	refErr  error
}

// Program returns the sealed single-process program, building it on first
// use.
func (a *App) Program() (*ir.Program, error) {
	a.once.Do(func() {
		p := a.build(false)
		if err := p.Seal(); err != nil {
			a.buildErr = fmt.Errorf("apps: %s: %w", a.Name, err)
			return
		}
		a.prog = p
	})
	return a.prog, a.buildErr
}

// MPIProgram returns the sealed SPMD variant: the same computation with a
// world-wide checksum allreduce folded into each main-loop iteration.
func (a *App) MPIProgram() (*ir.Program, error) {
	a.mpiOnce.Do(func() {
		p := a.build(true)
		if err := p.Seal(); err != nil {
			a.mpiErr = fmt.Errorf("apps: %s (mpi): %w", a.Name, err)
			return
		}
		a.mpiProg = p
	})
	return a.mpiProg, a.mpiErr
}

// NewMachine builds a machine for the single-process program with hosts
// bound and the RNG seeded to the canonical seed.
func (a *App) NewMachine() (*interp.Machine, error) {
	p, err := a.Program()
	if err != nil {
		return nil, err
	}
	m, err := interp.NewMachine(p)
	if err != nil {
		return nil, err
	}
	if err := m.BindStandardHosts(); err != nil {
		return nil, err
	}
	if err := BindMathHosts(m); err != nil {
		return nil, err
	}
	m.SeedRNG(DefaultSeed)
	return m, nil
}

// Reference returns the fault-free output of the app (cached).
func (a *App) Reference() ([]trace.OutVal, error) {
	a.refOnce.Do(func() {
		m, err := a.NewMachine()
		if err != nil {
			a.refErr = err
			return
		}
		tr, err := m.Run()
		if err != nil {
			a.refErr = err
			return
		}
		if tr.Status != trace.RunOK {
			a.refErr = fmt.Errorf("apps: %s reference run %s: %s", a.Name, tr.Status, m.CrashMessage())
			return
		}
		a.ref = tr.Output
	})
	return a.ref, a.refErr
}

// Verify implements the app's verification phase (§II-A): the run passes
// when every output matches the fault-free reference within Tol relative
// error. This is the test that separates Verification Success from
// Verification Failed.
func (a *App) Verify(tr *trace.Trace) bool {
	ref, err := a.Reference()
	if err != nil {
		return false
	}
	return VerifyOutputs(tr, ref, a.Tol)
}

// VerifyOutputs is the §II-A verification phase against an explicit
// reference: the run passes when every output matches ref within tol
// relative error. App.Verify applies it to the app's fault-free reference;
// MPI analyses apply it per rank against the clean world's rank outputs.
func VerifyOutputs(tr *trace.Trace, ref []trace.OutVal, tol float64) bool {
	if len(tr.Output) != len(ref) {
		return false
	}
	for i, o := range tr.Output {
		want := ref[i].Float()
		got := o.Float()
		if math.IsNaN(got) || math.IsInf(got, 0) {
			return false
		}
		scale := math.Abs(want)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got-want) > tol*scale {
			return false
		}
	}
	return true
}

// CleanTrace runs the app fault-free in the given trace mode.
func (a *App) CleanTrace(mode interp.TraceMode) (*trace.Trace, error) {
	m, err := a.NewMachine()
	if err != nil {
		return nil, err
	}
	m.Mode = mode
	tr, err := m.Run()
	if err != nil {
		return nil, err
	}
	if tr.Status != trace.RunOK {
		return nil, fmt.Errorf("apps: %s clean run %s: %s", a.Name, tr.Status, m.CrashMessage())
	}
	return tr, nil
}

// FaultyTrace runs the app with one injected fault in the given trace mode.
func (a *App) FaultyTrace(mode interp.TraceMode, f interp.Fault) (*trace.Trace, error) {
	m, err := a.NewMachine()
	if err != nil {
		return nil, err
	}
	m.Mode = mode
	m.Fault = &f
	return m.Run()
}

// BindMathHosts binds the transcendental host functions (cos, sin) used by
// FT. They model libm, which the paper's tracer does not instrument.
func BindMathHosts(m *interp.Machine) error {
	if _, ok := m.Prog.HostIndex("cos"); ok {
		if err := m.BindHost("cos", func(_ *interp.Machine, args []ir.Word) (ir.Word, error) {
			return ir.F64Word(math.Cos(args[0].Float())), nil
		}); err != nil {
			return err
		}
	}
	if _, ok := m.Prog.HostIndex("sin"); ok {
		if err := m.BindHost("sin", func(_ *interp.Machine, args []ir.Word) (ir.Word, error) {
			return ir.F64Word(math.Sin(args[0].Float())), nil
		}); err != nil {
			return err
		}
	}
	return nil
}

var (
	regMu    sync.Mutex
	registry = map[string]*App{}
)

func register(a *App) *App {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[a.Name]; dup {
		panic("apps: duplicate app " + a.Name)
	}
	registry[a.Name] = a
	return a
}

// Get returns the named app.
func Get(name string) (*App, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	a, ok := registry[name]
	return a, ok
}

// Names returns all registered app names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry { //ftlint:ok the keys are sorted below
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableIVNames returns the ten benchmark names in the paper's Table IV row
// order.
func TableIVNames() []string {
	return []string{"cg", "mg", "lu", "bt", "is", "dc", "sp", "ft", "kmeans", "lulesh"}
}

// Fig5Names returns the five programs of the per-region study (Figure 5).
func Fig5Names() []string {
	return []string{"cg", "mg", "kmeans", "is", "lulesh"}
}
