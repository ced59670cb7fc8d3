package patterns

import (
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// Rates are the normalized pattern-instance counts of §VII-B: for each
// resilience pattern, the number of dynamic opportunities for that pattern
// divided by the total number of dynamic instructions. They are the model
// features x_i of Equation 3 ("condition rate, shift rate, truncation rate",
// ...). Counted over a fault-free full trace.
//
// Shifting and truncation opportunities are weighted by the fraction of the
// 64-bit word they discard, since a larger discard masks more random bit
// flips (the paper's §VI discussion: "the more bits are shifted, the more
// random bit-flip errors can be tolerated").
type Rates struct {
	Condition        float64
	Shift            float64
	Truncation       float64
	DeadLocation     float64
	RepeatedAddition float64
	Overwrite        float64
}

// Vector returns the rates in the canonical feature order used by the
// prediction model (matching Table IV's column order).
func (r Rates) Vector() []float64 {
	return []float64{r.Condition, r.Shift, r.Truncation, r.DeadLocation, r.RepeatedAddition, r.Overwrite}
}

// FeatureNames returns the feature labels in Vector order.
func FeatureNames() []string {
	return []string{"condition", "shift", "truncation", "dead-location", "repeat-addition", "overwrite"}
}

// CountRates computes pattern rates from a fault-free full trace.
func CountRates(t *trace.Trace) Rates {
	var (
		total float64
		cond  float64
		shift float64
		trunc float64
		accum float64
	)
	// For dead-location and overwrite rates we need, per location version,
	// whether it is ever read before being overwritten.
	lastWrite := map[trace.Loc]int{} // loc -> rec index of live version
	readSince := map[trace.Loc]bool{}
	var deadVersions, overwrittenLive, versions float64

	// Additive-chain tracking for the repeated-addition rate: regs whose
	// value is an additive chain rooted at a memory load of some address.
	chain := map[trace.Loc]trace.Loc{} // reg loc -> mem loc

	for i, n := 0, t.Recs.Len(); i < n; i++ {
		r := t.Recs.At(i)
		if r.Op == ir.OpRegionEnter || r.Op == ir.OpRegionExit {
			continue
		}
		total++
		for s := 0; s < int(r.NSrc); s++ {
			if r.Src[s] != 0 {
				readSince[r.Src[s]] = true
			}
		}
		switch r.Op {
		case ir.OpCondBr:
			cond++
		case ir.OpShl, ir.OpLShr, ir.OpAShr:
			amt := uint64(r.SrcVal[1]) & 63
			shift += float64(amt) / 64
		case ir.OpFPTrunc:
			trunc += 29.0 / 64 // float64 -> float32 drops 29 mantissa bits
		case ir.OpTruncI32:
			trunc += 32.0 / 64
		case ir.OpEmitSci6:
			trunc += 33.0 / 64 // ~20 of 53 mantissa bits survive 6 digits
		}

		// Additive chains.
		switch r.Op {
		case ir.OpLoad:
			chain[r.Dst] = r.Src[0]
		case ir.OpFAdd, ir.OpAdd:
			if m, ok := chain[r.Src[0]]; ok {
				chain[r.Dst] = m
			} else if m, ok := chain[r.Src[1]]; ok {
				chain[r.Dst] = m
			} else {
				delete(chain, r.Dst)
			}
		case ir.OpStore:
			if m, ok := chain[r.Src[0]]; ok && m == r.Dst {
				accum++ // x[i] = x[i] + ... accumulation
			}
		default:
			if r.HasDst() {
				delete(chain, r.Dst)
			}
		}

		if r.HasDst() {
			if _, ok := lastWrite[r.Dst]; ok {
				versions++
				if readSince[r.Dst] {
					overwrittenLive++
				} else {
					deadVersions++
				}
			}
			lastWrite[r.Dst] = i
			readSince[r.Dst] = false
		}
	}
	// Versions still live at program end that were never read are dead too.
	for loc := range lastWrite { //ftlint:ok only counts; the totals do not depend on order
		versions++
		if !readSince[loc] {
			deadVersions++
		} else {
			overwrittenLive++
		}
	}

	if total == 0 {
		return Rates{}
	}
	rates := Rates{
		Condition:        cond / total,
		Shift:            shift / total,
		Truncation:       trunc / total,
		RepeatedAddition: accum / total,
	}
	if versions > 0 {
		rates.DeadLocation = deadVersions / versions
		rates.Overwrite = overwrittenLive / versions
	}
	return rates
}
