package runtime

import "time"

// TransportKind selects the fabric implementation a run's transfers
// move over.
type TransportKind string

const (
	// TransportChan is the in-process fabric: the posting device puts
	// a transfer straight into the destination's mailbox, stamped with
	// when its modeled wire ends, and the receiving done's clock moves on
	// to that due. The zero value of Options.Transport resolves here.
	TransportChan TransportKind = "chan"

	// TransportProc runs each communicating logical device as its own
	// spawned OS process: tensors leave the parent as length-prefixed
	// binary frames carrying their due, cross a Unix socket into the
	// source device's worker, cross a second socket to the destination
	// device's worker, and come back up to the parent for delivery,
	// where the receiving done's clock moves on to the due.
	// Drops and duplicates act inside the workers — below the mailbox
	// layer, on the real sockets; an injected delay is in the due.
	TransportProc TransportKind = "proc"
)

// ParseTransport maps a CLI/API string onto a TransportKind; the empty
// string is the channel transport.
func ParseTransport(s string) (TransportKind, error) {
	switch TransportKind(s) {
	case "", TransportChan:
		return TransportChan, nil
	case TransportProc:
		return TransportProc, nil
	}
	return "", formatErr("unknown transport %q (want %q or %q)", s, TransportChan, TransportProc)
}

// transport is the seam the process transport plugs into the fabric
// behind its build tag: it carries one posted parcel from its source
// device's worker to the destination mailbox, stamped with the due the
// fabric's wire rule (transit) gives it, and acts out the run's link
// faults on the way. In process the fabric carries parcels itself and
// binds no transport. Everything above it — the wire rule, mailbox
// addressing, at-most-once enforcement, watermark pruning, the
// missing-link check — stays in the fabric, which is what keeps the
// bitwise cross-check against sim.Interpret transport-independent, and
// the fabric's transit records every transfer span.
type transport interface {
	// start brings the data plane up for the Executable's directed
	// edges. Called once, before any device goroutine runs; an error
	// fails the run before it starts.
	start() error

	// post hands one parcel to the wire of the edge at position link of
	// the Executable's edge table, without waiting for the wire. It may
	// block while the edge's queue is full but must return false
	// instead of blocking forever once the run aborts.
	post(link int, p parcel) bool

	// shutdown tears the data plane down — goroutines joined, worker
	// processes reaped — after every device goroutine has returned.
	shutdown()
}

// faultActions resolves the injector's decision for the k-th parcel on
// one edge: whether to drop it, duplicate it, and how much extra wire
// delay to add (nanoseconds). The decision (and its telemetry) is made
// exactly once per parcel, in the parent, from the run's seeded plan —
// transports only act it out, which keeps fault sequences and their
// attribution identical across transports and across runs.
func (e *engine) faultActions(lf *linkFaults, instr string) (drop bool, dup *Fault, extra int64) {
	if lf == nil {
		return false, nil, 0
	}
	k := lf.next()
	if flt, ok := lf.drops[k]; ok {
		e.inj.record(flt, instr)
		rtFaultDrops.Inc()
		return true, nil, 0
	}
	for _, flt := range lf.delays {
		if flt.K >= 0 && flt.K != k {
			continue
		}
		add := flt.Delay
		if flt.Jitter > 0 {
			add += time.Duration(lf.rng.Float64() * float64(flt.Jitter))
		}
		extra += add.Nanoseconds()
		e.inj.record(flt, instr)
		rtFaultDelays.Inc()
	}
	if flt, ok := lf.dups[k]; ok {
		flt := flt
		e.inj.record(flt, instr)
		rtFaultDuplicates.Inc()
		dup = &flt
	}
	return false, dup, extra
}
