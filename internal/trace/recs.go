package trace

import "fliptracker/internal/ir"

// Recs is the columnar (struct-of-arrays) record store of a trace. Where the
// old array-of-structs layout paid ~88 padded bytes per record, the columns
// pack the same data densely (small-domain fields as byte columns, locations
// and operand words as word columns with a fixed stride of 2 for the two
// source slots), and each analysis touches only the columns it reads. The
// layout is also what the FTRC2 codec (binio.go) serializes directly:
// per-column delta/RLE encoding needs the fields contiguous, not interleaved.
//
// Records are addressed by index through the accessor API: per-field
// accessors (Op, Step, Dst, ...) for loops that touch few fields, and At for
// materializing a full Rec row. Appending goes column-at-a-time through the
// specialized appenders used by the interpreter's recorder, or through
// Append for a prebuilt Rec. A Recs value is a set of slice headers: Slice
// and copies share the underlying columns exactly like subslicing a []Rec
// would, and the same aliasing rules apply.
type Recs struct {
	sid    []int32
	op     []ir.Opcode
	typ    []ir.Type
	nsrc   []uint8
	taken  []bool
	region []int32
	step   []uint64
	dst    []Loc
	dstVal []ir.Word
	// src/srcVal hold both source slots at a fixed stride of 2: slot j of
	// record i lives at index 2i+j. Slots beyond NSrc(i) are zero.
	src    []Loc
	srcVal []ir.Word
}

// MakeRecs builds a column store from record rows (test and fixture helper).
func MakeRecs(recs ...Rec) Recs {
	var r Recs
	r.Grow(len(recs))
	for i := range recs {
		r.Append(recs[i])
	}
	return r
}

// Len returns the number of records.
func (r *Recs) Len() int { return len(r.sid) }

// Cap returns the record capacity of the underlying columns.
func (r *Recs) Cap() int { return cap(r.sid) }

// SID returns the static instruction id of record i.
func (r *Recs) SID(i int) int32 { return r.sid[i] }

// Op returns the opcode of record i.
func (r *Recs) Op(i int) ir.Opcode { return r.op[i] }

// Typ returns the value type of record i.
func (r *Recs) Typ(i int) ir.Type { return r.typ[i] }

// NSrc returns how many source slots of record i are valid.
func (r *Recs) NSrc(i int) int { return int(r.nsrc[i]) }

// Taken returns the branch outcome of record i (OpCondBr records).
func (r *Recs) Taken(i int) bool { return r.taken[i] }

// RegionID returns the region id of record i (-1 for non-marker records).
func (r *Recs) RegionID(i int) int32 { return r.region[i] }

// Step returns the dynamic step of record i.
func (r *Recs) Step(i int) uint64 { return r.step[i] }

// Dst returns the destination location of record i (0 when none).
func (r *Recs) Dst(i int) Loc { return r.dst[i] }

// DstVal returns the destination value of record i.
func (r *Recs) DstVal(i int) ir.Word { return r.dstVal[i] }

// HasDst reports whether record i wrote a destination location.
func (r *Recs) HasDst(i int) bool { return r.dst[i] != 0 }

// Src returns source slot j (0 or 1) of record i.
func (r *Recs) Src(i, j int) Loc { return r.src[2*i+j] }

// SrcVal returns the value of source slot j of record i.
func (r *Recs) SrcVal(i, j int) ir.Word { return r.srcVal[2*i+j] }

// At materializes record i as a full Rec row.
func (r *Recs) At(i int) Rec {
	return Rec{
		SID:      r.sid[i],
		Op:       r.op[i],
		Typ:      r.typ[i],
		RegionID: r.region[i],
		NSrc:     r.nsrc[i],
		Taken:    r.taken[i],
		Dst:      r.dst[i],
		Src:      [2]Loc{r.src[2*i], r.src[2*i+1]},
		SrcVal:   [2]ir.Word{r.srcVal[2*i], r.srcVal[2*i+1]},
		DstVal:   r.dstVal[i],
		Step:     r.step[i],
	}
}

// Grow reserves capacity for at least n additional records without changing
// Len, so a run of appends proceeds without growth copies.
func (r *Recs) Grow(n int) {
	if n <= 0 || r.Len()+n <= r.Cap() {
		return
	}
	grown := newRecs(r.Len() + n)
	grown.Extend(r)
	*r = grown
}

// Append adds one prebuilt record row.
func (r *Recs) Append(rec Rec) {
	r.sid = append(r.sid, rec.SID)
	r.op = append(r.op, rec.Op)
	r.typ = append(r.typ, rec.Typ)
	r.nsrc = append(r.nsrc, rec.NSrc)
	r.taken = append(r.taken, rec.Taken)
	r.region = append(r.region, rec.RegionID)
	r.step = append(r.step, rec.Step)
	r.dst = append(r.dst, rec.Dst)
	r.dstVal = append(r.dstVal, rec.DstVal)
	r.src = append(r.src, rec.Src[0], rec.Src[1])
	r.srcVal = append(r.srcVal, rec.SrcVal[0], rec.SrcVal[1])
}

// AppendMarker appends a region enter/exit record (no destination, no
// sources).
func (r *Recs) AppendMarker(sid int32, op ir.Opcode, typ ir.Type, region int32, step uint64) {
	r.sid = append(r.sid, sid)
	r.op = append(r.op, op)
	r.typ = append(r.typ, typ)
	r.nsrc = append(r.nsrc, 0)
	r.taken = append(r.taken, false)
	r.region = append(r.region, region)
	r.step = append(r.step, step)
	r.dst = append(r.dst, 0)
	r.dstVal = append(r.dstVal, 0)
	r.src = append(r.src, 0, 0)
	r.srcVal = append(r.srcVal, 0, 0)
}

// Append0 appends a destination-writing record with no sources.
func (r *Recs) Append0(sid int32, op ir.Opcode, typ ir.Type, step uint64, dst Loc, dstVal ir.Word) {
	r.sid = append(r.sid, sid)
	r.op = append(r.op, op)
	r.typ = append(r.typ, typ)
	r.nsrc = append(r.nsrc, 0)
	r.taken = append(r.taken, false)
	r.region = append(r.region, -1)
	r.step = append(r.step, step)
	r.dst = append(r.dst, dst)
	r.dstVal = append(r.dstVal, dstVal)
	r.src = append(r.src, 0, 0)
	r.srcVal = append(r.srcVal, 0, 0)
}

// Append1 appends a destination-writing record with one source.
func (r *Recs) Append1(sid int32, op ir.Opcode, typ ir.Type, step uint64, dst Loc, dstVal ir.Word, src0 Loc, srcVal0 ir.Word) {
	r.sid = append(r.sid, sid)
	r.op = append(r.op, op)
	r.typ = append(r.typ, typ)
	r.nsrc = append(r.nsrc, 1)
	r.taken = append(r.taken, false)
	r.region = append(r.region, -1)
	r.step = append(r.step, step)
	r.dst = append(r.dst, dst)
	r.dstVal = append(r.dstVal, dstVal)
	r.src = append(r.src, src0, 0)
	r.srcVal = append(r.srcVal, srcVal0, 0)
}

// Append2 appends a destination-writing record with two sources.
func (r *Recs) Append2(sid int32, op ir.Opcode, typ ir.Type, step uint64, dst Loc, dstVal ir.Word, src0 Loc, srcVal0 ir.Word, src1 Loc, srcVal1 ir.Word) {
	r.sid = append(r.sid, sid)
	r.op = append(r.op, op)
	r.typ = append(r.typ, typ)
	r.nsrc = append(r.nsrc, 2)
	r.taken = append(r.taken, false)
	r.region = append(r.region, -1)
	r.step = append(r.step, step)
	r.dst = append(r.dst, dst)
	r.dstVal = append(r.dstVal, dstVal)
	r.src = append(r.src, src0, src1)
	r.srcVal = append(r.srcVal, srcVal0, srcVal1)
}

// AppendCondBr appends a conditional-branch record (one source, a Taken
// outcome, no destination).
func (r *Recs) AppendCondBr(sid int32, typ ir.Type, step uint64, src0 Loc, srcVal0 ir.Word, taken bool) {
	r.sid = append(r.sid, sid)
	r.op = append(r.op, ir.OpCondBr)
	r.typ = append(r.typ, typ)
	r.nsrc = append(r.nsrc, 1)
	r.taken = append(r.taken, taken)
	r.region = append(r.region, -1)
	r.step = append(r.step, step)
	r.dst = append(r.dst, 0)
	r.dstVal = append(r.dstVal, 0)
	r.src = append(r.src, src0, 0)
	r.srcVal = append(r.srcVal, srcVal0, 0)
}

// Extend appends every record of o, column-at-a-time.
func (r *Recs) Extend(o *Recs) {
	r.sid = append(r.sid, o.sid...)
	r.op = append(r.op, o.op...)
	r.typ = append(r.typ, o.typ...)
	r.nsrc = append(r.nsrc, o.nsrc...)
	r.taken = append(r.taken, o.taken...)
	r.region = append(r.region, o.region...)
	r.step = append(r.step, o.step...)
	r.dst = append(r.dst, o.dst...)
	r.dstVal = append(r.dstVal, o.dstVal...)
	r.src = append(r.src, o.src...)
	r.srcVal = append(r.srcVal, o.srcVal...)
}

// Slice returns the view [lo, hi) sharing the underlying columns, exactly
// like subslicing an array-of-structs record buffer.
func (r *Recs) Slice(lo, hi int) Recs {
	return Recs{
		sid:    r.sid[lo:hi],
		op:     r.op[lo:hi],
		typ:    r.typ[lo:hi],
		nsrc:   r.nsrc[lo:hi],
		taken:  r.taken[lo:hi],
		region: r.region[lo:hi],
		step:   r.step[lo:hi],
		dst:    r.dst[lo:hi],
		dstVal: r.dstVal[lo:hi],
		src:    r.src[2*lo : 2*hi],
		srcVal: r.srcVal[2*lo : 2*hi],
	}
}

// Clone returns a deep copy with freshly allocated columns.
func (r *Recs) Clone() Recs {
	var c Recs
	if r.Len() == 0 {
		return c
	}
	c.Grow(r.Len())
	c.Extend(r)
	return c
}

// Equal reports whether both stores hold identical record sequences.
func (r *Recs) Equal(o *Recs) bool {
	if r.Len() != o.Len() {
		return false
	}
	return equalCol(r.sid, o.sid) && equalCol(r.op, o.op) && equalCol(r.typ, o.typ) &&
		equalCol(r.nsrc, o.nsrc) && equalCol(r.taken, o.taken) && equalCol(r.region, o.region) &&
		equalCol(r.step, o.step) && equalCol(r.dst, o.dst) && equalCol(r.dstVal, o.dstVal) &&
		equalCol(r.src, o.src) && equalCol(r.srcVal, o.srcVal)
}

func equalCol[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
