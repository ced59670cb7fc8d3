// Package dddg builds dynamic data dependence graphs from instruction
// traces, following the construction the paper adapts from Holewinski et al.
// (§III-B, [28]): vertices are the values of locations (registers/memory) at
// specific versions, edges are the operations that transform input values
// into output values. Root nodes are the inputs of a code region, leaf nodes
// its outputs, everything else internal.
package dddg

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// NodeID indexes Graph.Nodes.
type NodeID int32

// Node is one value-version of a location.
type Node struct {
	ID  NodeID
	Loc trace.Loc
	// Val is the value the location held at this version.
	Val ir.Word
	Typ ir.Type
	// RecIndex is the trace record (absolute index) that produced this
	// version, or -1 for external versions that flowed in from before the
	// span (region inputs).
	RecIndex int
	// External marks root nodes: values defined outside the span.
	External bool
}

// Edge is a data dependence: the operation at SID consumed From and produced
// To.
type Edge struct {
	From, To NodeID
	Op       ir.Opcode
	SID      int32
}

// Graph is the DDDG of one code-region instance (a trace span).
type Graph struct {
	Nodes []Node
	Edges []Edge

	// final maps each location to its last version in the span.
	final map[trace.Loc]NodeID
	// externals maps locations to their external (root) node.
	externals map[trace.Loc]NodeID
	outDegree []int32
	span      trace.Span
	src       *trace.Trace

	// cmp is the comparison index CompareRegionWith derives once per graph.
	cmpOnce sync.Once
	cmp     *compareIndex
}

// Build constructs the DDDG for the given span of t. Records outside the
// span are ignored except that OutputLocs (below) can look past the end.
func Build(t *trace.Trace, span trace.Span) *Graph {
	g := &Graph{
		final:     make(map[trace.Loc]NodeID),
		externals: make(map[trace.Loc]NodeID),
		span:      span,
		src:       t,
	}
	for i := span.Start; i < span.End && i < t.Recs.Len(); i++ {
		r := t.Recs.At(i)
		if r.Op == ir.OpRegionEnter || r.Op == ir.OpRegionExit {
			continue
		}
		// Resolve sources to current versions, creating external roots
		// for locations first seen as sources.
		var srcIDs [2]NodeID
		for s := 0; s < int(r.NSrc); s++ {
			loc := r.Src[s]
			if loc == 0 {
				srcIDs[s] = -1
				continue
			}
			id, ok := g.final[loc]
			if !ok {
				id = g.addNode(Node{Loc: loc, Val: r.SrcVal[s], Typ: r.Typ, RecIndex: -1, External: true})
				g.externals[loc] = id
				g.final[loc] = id
			}
			srcIDs[s] = id
		}
		if !r.HasDst() {
			// Pure consumers (condbr) still count as uses.
			for s := 0; s < int(r.NSrc); s++ {
				if srcIDs[s] >= 0 {
					g.outDegree[srcIDs[s]]++
				}
			}
			continue
		}
		dst := g.addNode(Node{Loc: r.Dst, Val: r.DstVal, Typ: r.Typ, RecIndex: i})
		for s := 0; s < int(r.NSrc); s++ {
			if srcIDs[s] < 0 {
				continue
			}
			g.Edges = append(g.Edges, Edge{From: srcIDs[s], To: dst, Op: r.Op, SID: r.SID})
			g.outDegree[srcIDs[s]]++
		}
		g.final[r.Dst] = dst
	}
	return g
}

func (g *Graph) addNode(n Node) NodeID {
	n.ID = NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, n)
	g.outDegree = append(g.outDegree, 0)
	return n.ID
}

// Span returns the trace span the graph was built from.
func (g *Graph) Span() trace.Span { return g.span }

// Inputs returns the root nodes: location versions that flowed into the span
// from outside. These are the code region's input variables (§III-B: "root
// nodes represent inputs").
func (g *Graph) Inputs() []Node {
	var out []Node
	for _, n := range g.Nodes {
		if n.External {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Leaves returns nodes never consumed within the span ("leaf nodes represent
// outputs"). Restricting to memory locations gives the region's candidate
// output variables; registers that leak across region boundaries are included
// so callers can decide.
func (g *Graph) Leaves() []Node {
	var out []Node
	for i, n := range g.Nodes {
		if !n.External && g.outDegree[i] == 0 {
			out = append(out, n)
		}
	}
	return out
}

// FinalValue returns the last value a location held within the span.
func (g *Graph) FinalValue(loc trace.Loc) (ir.Word, bool) {
	id, ok := g.final[loc]
	if !ok {
		return 0, false
	}
	return g.Nodes[id].Val, true
}

// WrittenMemLocs returns every memory location written in the span, sorted.
func (g *Graph) WrittenMemLocs() []trace.Loc {
	seen := map[trace.Loc]bool{}
	for _, n := range g.Nodes {
		if !n.External && n.Loc.IsMem() {
			seen[n.Loc] = true
		}
	}
	return sortedLocs(seen)
}

// InputMemLocs returns every memory location read-before-written in the span
// (the true region inputs among globals), sorted.
func (g *Graph) InputMemLocs() []trace.Loc {
	seen := map[trace.Loc]bool{}
	for loc := range g.externals { //ftlint:ok fills a set that sortedLocs returns sorted
		if loc.IsMem() {
			seen[loc] = true
		}
	}
	return sortedLocs(seen)
}

// OutputLocs returns the memory locations written in the span that are read
// again after it — the paper's definition of output variables ("written in
// the code region and read after the code region", §III-A).
func (g *Graph) OutputLocs(t *trace.Trace) []trace.Loc {
	written := map[trace.Loc]bool{}
	for _, loc := range g.WrittenMemLocs() {
		written[loc] = true
	}
	out := map[trace.Loc]bool{}
	for i := g.span.End; i < t.Recs.Len(); i++ {
		r := t.Recs.At(i)
		for s := 0; s < int(r.NSrc); s++ {
			if written[r.Src[s]] {
				out[r.Src[s]] = true
				delete(written, r.Src[s]) // first touch decides
			}
		}
		if r.HasDst() {
			delete(written, r.Dst) // overwritten before any read
		}
	}
	return sortedLocs(out)
}

func sortedLocs(set map[trace.Loc]bool) []trace.Loc {
	out := make([]trace.Loc, 0, len(set))
	for l := range set { //ftlint:ok out is sorted below
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Diverged compares two spans' operation sequences (their static
// instruction ids) and returns the first position where they differ, or -1
// if identical: the control-flow divergence check of §III-B ("detect
// control flow divergence by comparing operations").
func Diverged(a *trace.Trace, sa trace.Span, b *trace.Trace, sb trace.Span) int {
	la, lb := sa.Len(), sb.Len()
	n := la
	if lb < n {
		n = lb
	}
	for i := 0; i < n; i++ {
		if a.Recs.SID(sa.Start+i) != b.Recs.SID(sb.Start+i) {
			return i
		}
	}
	if la != lb {
		return n
	}
	return -1
}

// DOT renders the graph in Graphviz dot format, resolving global-array names
// through prog when non-nil (the paper uses Graphviz for this, §IV-B).
func (g *Graph) DOT(prog *ir.Program, name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", name)
	for _, n := range g.Nodes {
		shape := "ellipse"
		if n.External {
			shape = "box"
		} else if g.outDegree[n.ID] == 0 {
			shape = "doublecircle"
		}
		label := trace.Describe(n.Loc, prog)
		var val string
		if n.Typ == ir.F64 {
			val = fmt.Sprintf("%.6g", n.Val.Float())
		} else {
			val = fmt.Sprintf("%d", n.Val.Int())
		}
		fmt.Fprintf(&sb, "  n%d [shape=%s,label=\"%s=%s\"];\n", n.ID, shape, label, val)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%s\"];\n", e.From, e.To, e.Op)
	}
	sb.WriteString("}\n")
	return sb.String()
}
