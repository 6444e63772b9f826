package autotune

import (
	"math"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/sim"
)

// calibrate fits the machine spec to the stage-2 measurements so that
// simulated and measured step times track each other, and returns the
// fit and its residual error — identity and -1 when there is nothing to
// fit.
//
// A run's step comes from one timing pass over per-op costs: its wire
// is the modeled seconds scaled by ts, the scale stage 2 ran at, but its
// compute is what real Go tensor math measured, so the two domains
// drift apart by independent factors. (At a derived
// clock the compute factor is 1 on the input program by construction;
// the candidates' compute still drifts from the model.) The fit
// therefore estimates three parameters from the measured breakdowns:
//
//   - effective compute throughput, from the measured vs predicted
//     compute spans (a through-origin least-squares slope);
//   - effective link bandwidth, from the wire spans the same way;
//   - per-op overhead, from the per-instruction step-time residual that
//     remains after the first two corrections.
//
// Each factor becomes a machine.Calibration throughput multiplier; the
// residual is the RMS relative step-time error of the re-simulated,
// calibrated spec against the measurements.
func calibrate(cands []Candidate, s *search, ts float64) (machine.Calibration, float64) {
	numDevices, spec := s.numDevices, s.spec
	if ts <= 0 {
		return machine.Identity(), -1 // measured compute alone has no modeled-seconds axis to fit against
	}
	measured := []*Candidate{}
	for i := range cands {
		if c := &cands[i]; c.Executed {
			measured = append(measured, c)
		}
	}
	if len(measured) == 0 {
		return machine.Identity(), -1
	}

	var predC, measC, predW, measW []float64
	for _, c := range measured {
		predC = append(predC, c.Predicted.Compute*ts)
		measC = append(measC, c.Measured.Compute)
		predW = append(predW, c.Predicted.CollectiveWire*ts)
		measW = append(measW, c.Measured.CollectiveWire)
	}
	slopeC := clampSlope(originSlope(predC, measC))
	slopeW := clampSlope(originSlope(predW, measW))

	cal := machine.Calibration{
		ComputeScale:  1 / slopeC,
		WireScale:     1 / slopeW,
		OverheadScale: 1,
	}

	// With compute and wire corrected, attribute the remaining step-time
	// residual to per-instruction issue overhead.
	partial := cal.Apply(spec)
	var xs, rs []float64
	for _, c := range measured {
		bd, err := sim.Simulate(s.programs[c.Name], numDevices, partial)
		if err != nil {
			continue
		}
		xs = append(xs, float64(opsPerDevice(s.programs[c.Name]))*ts)
		rs = append(rs, c.Measured.StepTime-bd.StepTime*ts)
	}
	var delta, den float64
	for i := range xs {
		delta += xs[i] * rs[i]
		den += xs[i] * xs[i]
	}
	if den > 0 {
		delta /= den
	}
	if spec.OpOverhead > 0 && den > 0 {
		newOvh := spec.OpOverhead + delta
		if newOvh < 0 {
			newOvh = 0
		}
		cal.OverheadScale = clampSlope(newOvh / spec.OpOverhead)
	}

	// Residual: how well the calibrated simulator now predicts the
	// measured step times.
	calibrated := cal.Apply(spec)
	var sq float64
	n := 0
	for _, c := range measured {
		wall := c.Measured.StepTime
		bd, err := sim.Simulate(s.programs[c.Name], numDevices, calibrated)
		if err != nil || wall <= 0 {
			continue
		}
		rel := (bd.StepTime*ts - wall) / wall
		sq += rel * rel
		n++
	}
	if n == 0 {
		return cal, -1
	}
	return cal, math.Sqrt(sq / float64(n))
}

// originSlope returns the least-squares slope of y ≈ s·x through the
// origin, or 1 when x carries no signal.
func originSlope(x, y []float64) float64 {
	var num, den float64
	for i := range x {
		num += x[i] * y[i]
		den += x[i] * x[i]
	}
	if den == 0 {
		return 1
	}
	return num / den
}

func clampSlope(s float64) float64 {
	if math.IsNaN(s) || s <= 1e-6 {
		return 1e-6
	}
	if s > 1e6 {
		return 1e6
	}
	return s
}

// opsPerDevice counts the instructions one device issues in a step,
// expanding rolled loops by their trip count.
func opsPerDevice(c *hlo.Computation) int {
	n := 0
	for i := 0; i < c.NumInstructions(); i++ {
		if in := c.At(i); in.Op == hlo.OpLoop && in.Body != nil {
			n += in.TripCount * in.Body.NumInstructions()
			continue
		}
		n++
	}
	return n
}
