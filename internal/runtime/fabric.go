package runtime

import (
	"slices"
	"sync"

	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// mailKey addresses one received instance: box is the mailbox number of
// the op that produced it — a CollectivePermuteStart or a blocking
// collective (fabric.op reads the op back) — and inst the loop
// iteration it ran in (0 outside a loop). Every device walks the same
// schedule, so a sender's start in iteration k pairs with its
// receiver's done in iteration k, and every member's collective in
// iteration k is generation k: no further coordination is needed to
// match them.
type mailKey struct {
	box  int
	inst int
}

// parcel is one posted tensor on its way into a mailbox. The fabric
// owns data from post to delivery: the sender either handed over a
// buffer it was done with or posted a private copy, and the receiving
// done adopts it.
type parcel struct {
	key  mailKey
	data *tensor.Tensor
}

// mailboxes is one device's receive side: a queue per mailbox number,
// all under one lock, and one wake-up channel — only the device itself
// ever waits here, on one transfer or collective result at a time.
type mailboxes struct {
	mu sync.Mutex

	// queue[box][i] is instance water[box]+i of that op, empty until
	// it arrives; water[box] is one past the last instance the device
	// consumed. Per (op, device) instances are consumed strictly in
	// order — the receiver's k-th done blocks until instance k arrives
	// — so a delivery below the watermark, or into an occupied cell,
	// can only be a duplicate (injected or a fabric bug), and a queue
	// holds only in-flight instances however many times a loop executes
	// the op.
	queue [][]*tensor.Tensor
	water []int

	// wake has room for one token: a delivery leaves one, the device
	// takes it and rechecks its queue.
	wake chan struct{}
}

// fabric is a run context's transfer addressing: every device's
// mailboxes and the at-most-once bookkeeping, over the edges and
// mailbox numbers of the program's schedule. It moves data and decides
// drops and duplicates; it keeps no time, because the replay computes
// every wire from the schedule. In process it is the whole data
// plane: the posting device delivers a parcel at once, and no goroutine
// stands between it and the device that takes it. A run on the process
// transport binds tr, whose workers move the parcel across real sockets
// between post and deliver; tr is nil on an in-process run.
type fabric struct {
	eng  *engine
	tr   transport
	mail []mailboxes
}

// newFabric lays out one mailbox per (device, mailbox number) of the
// schedule. A process transport is bound per run (bind), and its data plane
// started by engine.run before launching devices, so a spawn failure
// surfaces as a run error instead of a hang.
func newFabric(e *engine) *fabric {
	boxes := len(e.sched.Comms)
	f := &fabric{eng: e, mail: make([]mailboxes, e.n)}
	// One cell per mailbox up front: in a healthy run at most one
	// instance of an op is waiting at a device, so queues never grow.
	cells := make([]*tensor.Tensor, e.n*boxes)
	for d := range f.mail {
		m := &f.mail[d]
		m.queue = make([][]*tensor.Tensor, boxes)
		for b := range m.queue {
			at := d*boxes + b
			m.queue[b] = cells[at : at : at+1]
		}
		m.water = make([]int, boxes)
		m.wake = make(chan struct{}, 1)
	}
	return f
}

// bind readies the fabric for a run's transport: a run on the process
// transport constructs it here.
func (f *fabric) bind() error {
	e := f.eng
	kind := e.opts.Transport
	if kind != "" && kind != TransportChan && kind != TransportProc {
		return formatErr("unknown transport %q", kind)
	}
	if kind != TransportProc {
		return nil
	}
	tr, err := newProcTransportChecked(e, f)
	f.tr = tr
	return err
}

// reset readies the mailboxes for another run after a clean one, which
// consumed every parcel: only the watermarks and a leftover wake-up
// token remain.
func (f *fabric) reset() {
	f.tr = nil
	for d := range f.mail {
		m := &f.mail[d]
		clear(m.water)
		select {
		case <-m.wake:
		default:
		}
	}
}

// start brings the data plane up.
func (f *fabric) start() error {
	if f.tr == nil {
		return nil
	}
	return f.tr.start()
}

// faults is the fault decision for the next parcel on the edge at
// position link, made where the parcel leaves its link's source — in
// carry, or in the process transport's edge serializer: whether the
// wire loses it or delivers it twice. The decision (and its telemetry)
// is made exactly once per parcel, in the parent, from the run's seeded
// plan — transports only act it out, which keeps fault sequences and
// their attribution identical across transports and across runs. A
// delay is no decision: it only moves time, and the replay adds it.
func (f *fabric) faults(link int, instr string) (drop bool, dup *Fault) {
	inj := f.eng.inj
	if inj == nil {
		return false, nil
	}
	lf := &inj.links[link]
	k := lf.sent
	lf.sent++
	if flt, ok := lf.at(FaultDrop, k); ok {
		inj.drop.CompareAndSwap(nil, &firedFault{fault: *flt, instr: instr})
		rtFaultInjections.Inc()
		rtFaultDrops.Inc()
		return true, nil
	}
	if flt, ok := lf.at(FaultDuplicate, k); ok {
		rtFaultInjections.Inc()
		rtFaultDuplicates.Inc()
		return false, flt
	}
	return false, nil
}

// deliver hands one parcel to its destination mailbox, enforcing
// at-most-once delivery per transfer instance. fault
// carries the injected-fault description when this delivery is itself
// the fault (a duplicate); a detected duplicate fails the run with a
// structured error attributed to the receiving device, and the buffer
// is not handed over a second time.
func (f *fabric) deliver(dst int, key mailKey, data *tensor.Tensor, fault string) {
	m := &f.mail[dst]
	m.mu.Lock()
	q := m.queue[key.box]
	i := key.inst - m.water[key.box]
	if i < 0 || (i < len(q) && q[i] != nil) {
		m.mu.Unlock()
		f.eng.fail(&RunError{
			Device: dst, Instr: f.op(key.box).In.Name, Phase: PhaseReceive,
			Elapsed: f.eng.sinceDur(), Fault: fault, Err: ErrDuplicateDelivery,
		})
		return
	}
	for len(q) <= i {
		q = append(q, nil)
	}
	q[i] = data
	m.queue[key.box] = q
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default: // a token is already waiting; the device rechecks every queue state it finds
	}
}

// deliverNamed is deliver for transports that re-enter the parent from
// another process: the key arrives as the portable (name, inst) pair
// and is mapped back to the start's mailbox. fault is the injected
// fault the frame was marked with (a duplicated delivery carries its
// injection's description on both copies, so a detected duplicate is
// attributed identically to the in-process transport). A delivery the
// schedule cannot have sent — a name that is no start, a device the
// start sends nothing to, an instance past the transfers its edge
// carries in a run, a shape other than the start operand's — is a
// framing or routing bug: it fails the run, and its buffer is recycled.
func (f *fabric) deliverNamed(dst int, name string, inst int, data *tensor.Tensor, fault string) {
	box, err := f.named(dst, name, inst, data.Shape())
	if err != nil {
		recycle(data)
		f.eng.fail(&RunError{
			Device: dst, Instr: name, Phase: PhaseReceive,
			Elapsed: f.eng.sinceDur(), Err: err,
		})
		return
	}
	f.deliver(dst, mailKey{box: box, inst: inst}, data, fault)
}

// named resolves a delivery from another process to its mailbox number,
// if the schedule can have sent it.
func (f *fabric) named(dst int, name string, inst int, shape []int) (int, error) {
	s := f.eng.sched
	box, ok := f.eng.boxes[name]
	if !ok || dst < 0 || dst >= f.eng.n || s.From(int32(box))[dst] < 0 {
		return 0, formatErr("transport delivered unknown transfer %q to device %d", name, dst)
	}
	edge := s.Edges[s.Links(int32(box))[s.From(int32(box))[dst]]]
	if inst < 0 || inst >= edge.Transfers {
		return 0, formatErr("transport delivered instance %d of %q; edge %d->%d carries %d", inst, name, edge.Src, edge.Dst, edge.Transfers)
	}
	if want := f.op(box).In.Operands[0].Shape; !slices.Equal(shape, want) {
		return 0, formatErr("transport delivered %q in shape %v, want %v", name, shape, want)
	}
	return box, nil
}

// op is the schedule op behind mailbox number box: its instruction
// names a transfer or a collective result in errors, spans and frames.
func (f *fabric) op(box int) *sim.Op {
	s := f.eng.sched
	return &s.Ops[s.Comms[box].At]
}

// post puts a transfer on the link at position link, which the schedule
// resolved for its sender: in process it delivers at once (carry), on
// the process transport it hands the parcel to the edge's queue. It
// reports false if the run aborted while the process transport could
// not take it.
func (f *fabric) post(link int, key mailKey, data *tensor.Tensor, bytes int64) bool {
	p := parcel{key: key, data: data}
	if f.tr == nil {
		f.carry(link, p)
	} else if !f.tr.post(link, p) {
		return false
	}
	rtTransfers.Inc()
	rtTransferBytes.Add(float64(bytes))
	return true
}

// carry takes a parcel onto its link in process and delivers it at once
// — twice for an injected duplicate, never for a drop.
func (f *fabric) carry(link int, p parcel) {
	drop, dup := f.faults(link, f.op(p.key.box).In.Name)
	if drop {
		return // lost on the wire: never delivered
	}
	dst := f.eng.sched.Edges[link].Dst
	f.deliver(dst, p.key, p.data, "")
	if dup != nil {
		f.deliver(dst, p.key, p.data, dup.String())
	}
}

// receive blocks until the instance addressed by key — always the next
// one the device has not consumed — is in device dst's mailbox, or the
// run aborts, and returns it: the device becomes the buffer's owner.
func (f *fabric) receive(dst int, key mailKey) (*tensor.Tensor, bool) {
	m := &f.mail[dst]
	for {
		m.mu.Lock()
		if q := m.queue[key.box]; len(q) > 0 && q[0] != nil {
			t := q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			m.queue[key.box] = q[:len(q)-1]
			m.water[key.box] = key.inst + 1
			m.mu.Unlock()
			return t, true
		}
		m.mu.Unlock()
		select {
		case <-m.wake:
		case <-f.eng.abort:
			return nil, false
		}
	}
}

// shutdown winds a process transport down. Called after all devices
// have returned: remaining parcels (possible only on abort) drain into
// mailboxes nobody reads, which cannot block because delivery never
// waits on a reader.
func (f *fabric) shutdown() {
	if f.tr != nil {
		f.tr.shutdown()
	}
}

// mailboxSizes reports, for one device, how many queue cells exist, how
// many hold an undelivered parcel, and how many ops have advanced
// their watermark — the boundedness receive guarantees, pinned by the
// fabric tests.
func (f *fabric) mailboxSizes(dev int) (mail, delivered, watermarks int) {
	m := &f.mail[dev]
	m.mu.Lock()
	defer m.mu.Unlock()
	for box, q := range m.queue {
		mail += len(q)
		for _, t := range q {
			if t != nil {
				delivered++
			}
		}
		if m.water[box] > 0 {
			watermarks++
		}
	}
	return mail, delivered, watermarks
}
