package core

import (
	"math"

	"microfab/internal/app"
	"microfab/internal/platform"
)

// Scalar pricing oracles. The batch kernels (Evaluator.TrialAll,
// Pricer.PriceAll) are bit-equal to m calls of these; the differential
// tests and fuzz targets compare the two. Declared in package core so the
// external core_test files can call them too.

// Trial returns the period machine u would reach if it also carried task i,
// without mutating anything: period(Mu) + x[i]·w[i][u] with x[i] priced on
// u. The second result is false when i's downstream demand is unknown
// (successor chain not fully assigned), in which case the period returned
// is meaningless.
func (e *Evaluator) Trial(i app.TaskID, u platform.MachineID) (float64, bool) {
	d, ok := e.Demand(i)
	if !ok {
		return math.Inf(1), false
	}
	xi := e.in.Failures.Inflation(i, u) * d
	return e.led.value(u) + xi*e.in.Platform.Time(i, u), true
}

// Trial returns the load machine u would reach if it also carried task i,
// without mutating anything. The second result is false when i's downstream
// demand is unknown (successor unassigned), in which case the load returned
// is meaningless. Assigning i to u right after a successful Trial lands u
// on exactly the returned bits.
func (p *Pricer) Trial(i app.TaskID, u platform.MachineID) (float64, bool) {
	d, ok := p.Demand(i)
	if !ok {
		return 0, false
	}
	xi := d * p.infl[int(i)*p.m+int(u)]
	return p.load[u] + float64(xi*p.tim[int(i)*p.m+int(u)]), true
}
