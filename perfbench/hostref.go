package main

import (
	"fmt"
	"time"
)

// Host-speed reference.
//
// On a shared host the exact solver's depth-first search changes speed
// for seconds to minutes at a time: ten proofs of one n=13 chain took
// from 190 to 310 ms (medians over 20 s) within a few minutes on a 2-core
// VM, while a multiply-xor loop timed alongside moved by a fifth. A run of
// at most a minute cannot average such a phase out, so two sets of runs of
// identical code disagreed by 29% on exact-proof's wall time. A fixed
// branchy search that shares no code with microfab slows with the solver.
// The benchmark therefore times that reference search between a batch
// pass's operations and between set-up runs, at least every refEvery, and
// reports those times scaled to a host on which the reference takes
// refNominal:
//
//	scaled = measured × refNominal / mean(the pass's reference times)
//
// No change to microfab can move the reference, so a change's own cost
// shows in full; only the host's speed is divided out. The open loop's
// latencies are not scaled: its schedule runs in real time. Each batch run
// prints its median host factor (reference time / refNominal) and its
// unscaled wall time on stderr.

// refNominal is about the reference search's time on a 2-core Xeon VM; it
// fixes the unit of the scaled times, not their ratios.
const refNominal = 30 * time.Millisecond

// refEvery is the least operation time between two reference samples in a
// pass; it keeps the reference's share of a pass near a tenth.
const refEvery = 250 * time.Millisecond

// refSolutions is the number of 12-queens placements.
const refSolutions = 14200

// refTime times the reference search: counting the 12-queens placements
// three times.
func refTime() time.Duration {
	t := time.Now()
	n := 0
	for r := 0; r < 3; r++ {
		n += queens(12, 0, 0, 0)
	}
	d := time.Since(t)
	if n != 3*refSolutions {
		panic(fmt.Sprintf("perfbench: reference search counted %d placements, want %d", n, 3*refSolutions))
	}
	return d
}

// queens counts the placements of the remaining queens on an n×n board
// given the columns and both diagonals already attacked.
func queens(n int, cols, diag1, diag2 uint32) int {
	if cols == 1<<n-1 {
		return 1
	}
	c := 0
	for free := ^(cols | diag1 | diag2) & (1<<n - 1); free != 0; {
		b := free & -free
		free ^= b
		c += queens(n, cols|b, (diag1|b)<<1, (diag2|b)>>1)
	}
	return c
}
