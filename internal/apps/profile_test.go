package apps

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fliptracker/internal/ir"
)

// TestOpcodeSequenceProfile profiles the dynamic opcode stream of the ten
// applications' clean runs. It logs the hottest opcode pairs and triples (the
// profile the fused dispatch codes in ir/fuse.go were chosen from) and
// replays each SID log through the sealed programs' Dispatch codes the way
// an untraced run dispatches. Every fused code must cover at least 1% of all
// dynamic steps: a superinstruction no workload uses does not earn its
// handler.
func TestOpcodeSequenceProfile(t *testing.T) {
	pairs, triples := map[string]int{}, map[string]int{}
	covered := map[ir.Opcode]int{}
	total, dispatches := 0, 0
	for _, name := range TableIVNames() {
		a, _ := Get(name)
		p, err := a.Program()
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]ir.Opcode, p.TotalInstrs)
		for _, f := range p.Funcs {
			for i := range f.Code {
				ops[f.Base+i] = f.Code[i].Op
			}
		}
		m, err := a.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		m.RecordSIDs = true
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		log := m.SIDLog()
		total += len(log)
		dispatches += len(log)
		for i := range log {
			if i+1 < len(log) {
				pairs[ops[log[i]].String()+"→"+ops[log[i+1]].String()]++
			}
			if i+2 < len(log) {
				triples[ops[log[i]].String()+"→"+ops[log[i+1]].String()+"→"+ops[log[i+2]].String()]++
			}
		}
		for op, starts := range fusedOccurrences(p, log) {
			k := len(op.Fused())
			covered[op] += k * len(starts)
			dispatches -= (k - 1) * len(starts)
		}
	}
	logTop(t, "pairs", pairs, total)
	logTop(t, "triples", triples, total)
	t.Logf("%d steps in %d dispatches (%.1f%% fewer)", total, dispatches, 100*(1-float64(dispatches)/float64(total)))
	for _, op := range fusedCodes() {
		share := float64(covered[op]) / float64(total)
		t.Logf("fused %-20s covers %5.2f%% of steps", op, 100*share)
		if share < 0.01 {
			t.Errorf("fused %s covers %.2f%% of steps, below 1%%", op, 100*share)
		}
	}
}

// fusedCodes returns every fused dispatch code.
func fusedCodes() []ir.Opcode {
	var out []ir.Opcode
	for op := range 256 {
		if ir.Opcode(op).Fused() != nil {
			out = append(out, ir.Opcode(op))
		}
	}
	return out
}

// logTop logs the ten most frequent sequences with their share of steps.
func logTop(t *testing.T, what string, counts map[string]int, total int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	for _, k := range keys[:min(10, len(keys))] {
		fmt.Fprintf(&b, "\n  %5.2f%% %s", 100*float64(counts[k])/float64(total), k)
	}
	t.Logf("top opcode %s:%s", what, b.String())
}
