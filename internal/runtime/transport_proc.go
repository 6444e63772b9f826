//go:build unix

package runtime

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"overlap/internal/obs"
	"overlap/internal/runtime/wire"
	"overlap/internal/tensor"
)

// procTransport runs the fabric's data plane across OS processes: each
// logical device that touches at least one directed edge gets its own
// spawned worker process (a re-exec of this binary, gated by
// MaybeWorker's environment variable), and a transfer crosses three
// Unix sockets on its way from post to deliver:
//
//	parent ──frame──▶ worker[src] ──frame──▶ worker[dst] ──frame──▶ parent
//	 (serialize)        (drop/dup act here)    (forward up)          (deserialize,
//	                                                                  deliver)
//
// The parent keeps everything that must stay deterministic: fault
// decisions come from the run's seeded injector before the frame goes
// down (the worker only acts them out, on the real sockets), and
// mailbox addressing never leaves the fabric. The frame comes back up
// as fast as the sockets move it. The sockets' own costs are wall time
// on the host, not wire: they go to the serialize and deserialize
// histograms, not the trace, whose transfers the replay times from the
// tape as it does in process.
// Compute stays on the parent's device goroutines — the workers are
// fabric endpoints, which is exactly the slice of the system a
// multi-machine deployment would move onto the network first.
type procTransport struct {
	eng *engine
	fab *fabric

	workers map[int]*procWorker
	edges   []*procEdge // by position in the Executable's edge table

	closing atomic.Bool
	sendWG  sync.WaitGroup
	readWG  sync.WaitGroup

	// awaited counts the frames sent down that have not come back up:
	// one a frame, none for a drop, two for a duplicate. A reader that
	// takes it to zero leaves a token in drained, for drain.
	awaited atomic.Int64
	drained chan struct{}
}

// procWorker is the parent's handle on one spawned device process.
type procWorker struct {
	id      int
	cmd     *exec.Cmd
	control *os.File   // parent end of the control socketpair
	writeMu sync.Mutex // serializes outbound frames on the control socket
}

// procEdge is the parent-side queue for one directed edge: per-edge
// ordering (and therefore wire serialization) is preserved because one
// sender goroutine drains it.
type procEdge struct {
	src, dst int
	ch       chan parcel
}

// linkBuffer bounds parcels queued on one edge before its sender; a
// start only blocks posting if this many sends are already pending
// there, and even then the sender is always draining, so posting can
// stall but never deadlock.
const linkBuffer = 64

func newProcTransportChecked(e *engine, f *fabric) (transport, error) {
	return newProcTransport(e, f), nil
}

// newProcTransport lays out the parent-side edge queues.
func newProcTransport(e *engine, f *fabric) *procTransport {
	t := &procTransport{
		eng:     e,
		fab:     f,
		workers: map[int]*procWorker{},
		edges:   make([]*procEdge, len(e.sched.Edges)),
		drained: make(chan struct{}, 1),
	}
	for i, edge := range e.sched.Edges {
		t.edges[i] = &procEdge{src: edge.Src, dst: edge.Dst, ch: make(chan parcel, min(linkBuffer, edge.Transfers))}
	}
	return t
}

// workerEnv gates worker mode in a re-exec'd binary; workerEdgesEnv
// describes the worker's edge file descriptors. See MaybeWorker.
const (
	workerEnv      = "OVERLAP_PROC_WORKER"
	workerEdgesEnv = "OVERLAP_PROC_EDGES"
)

// start spawns one worker per participating device, wires the edge
// socketpairs between them, and brings up the parent's per-edge sender
// and per-worker reader goroutines. Any failure tears down what was
// already spawned and fails the run before a device goroutine starts.
func (t *procTransport) start() error {
	type edgeFDs struct {
		spec string // "o:<peer>:<fd>" / "i:<peer>:<fd>" fragments
		fds  []*os.File
	}
	perWorker := map[int]*edgeFDs{}
	worker := func(id int) *edgeFDs {
		w, ok := perWorker[id]
		if !ok {
			w = &edgeFDs{}
			perWorker[id] = w
		}
		return w
	}
	fail := func(err error) error {
		for _, w := range perWorker {
			for _, f := range w.fds {
				f.Close()
			}
		}
		t.shutdown()
		return formatErr("proc transport: %w", err)
	}

	for _, edge := range t.eng.sched.Edges {
		src, dst := edge.Src, edge.Dst
		fds, err := socketpair()
		if err != nil {
			return fail(err)
		}
		// Both ends travel to children (blocking is fine here — each
		// child flips its own inherited copy); the parent only holds
		// them until Start. Child fd numbers start at 3: fd 3 is the
		// control socket, the edge fds follow in ExtraFiles order.
		outEnd := os.NewFile(uintptr(fds[0]), "edge-out")
		inEnd := os.NewFile(uintptr(fds[1]), "edge-in")
		ws, wd := worker(src), worker(dst)
		ws.fds = append(ws.fds, outEnd)
		ws.spec += fmt.Sprintf("o:%d:%d,", dst, 3+len(ws.fds))
		wd.fds = append(wd.fds, inEnd)
		wd.spec += fmt.Sprintf("i:%d:%d,", src, 3+len(wd.fds))
	}

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	for id, wf := range perWorker {
		fds, err := socketpair()
		if err != nil {
			return fail(err)
		}
		// The parent's end is poller-registered so shutdown's Close
		// wakes the reader goroutine; the child's end stays blocking
		// until the worker flips its own copy.
		childCtl := os.NewFile(uintptr(fds[1]), "control-child")
		parentCtl, err := pollableFile(fds[0], "control-parent")
		if err != nil {
			childCtl.Close()
			return fail(err)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", workerEnv, id),
			fmt.Sprintf("%s=%s", workerEdgesEnv, strings.TrimSuffix(wf.spec, ",")),
		)
		cmd.ExtraFiles = append([]*os.File{childCtl}, wf.fds...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			parentCtl.Close()
			childCtl.Close()
			return fail(err)
		}
		// The child holds its own duplicates now.
		childCtl.Close()
		for _, f := range wf.fds {
			f.Close()
		}
		wf.fds = nil
		t.workers[id] = &procWorker{id: id, cmd: cmd, control: parentCtl}
		rtTransportWorkers.Inc()
		obs.Log().Debug("runtime.worker_spawn", "run_id", t.eng.opts.RunID,
			"device", id, "pid", cmd.Process.Pid)
	}

	for i, l := range t.edges {
		t.sendWG.Add(1)
		go func() {
			defer t.sendWG.Done()
			t.serveEdge(i, l)
		}()
	}
	for _, w := range t.workers {
		w := w
		t.readWG.Add(1)
		go func() {
			defer t.readWG.Done()
			t.readWorker(w)
		}()
	}
	return nil
}

// post enqueues a transfer on its edge queue without waiting for the
// wire.
func (t *procTransport) post(link int, p parcel) bool {
	select {
	case t.edges[link].ch <- p:
		return true
	case <-t.eng.abort:
		return false
	}
}

// serveEdge drains the queue of the edge at position link: take each
// parcel's fault decision, serialize the tensor into a frame carrying
// it, send it down the source
// worker's control socket, and recycle the parcel's buffer — the bytes
// are on the wire, and the link was its only owner. Serialization cost
// is measured here, as a histogram sample, because it is the genuinely
// new cost the process fabric adds over the channel one.
func (t *procTransport) serveEdge(link int, l *procEdge) {
	e := t.eng
	w := t.workers[l.src]
	for p := range l.ch {
		name := t.fab.op(p.key.box).In.Name
		drop, dup := t.fab.faults(link, name)
		fr := wire.Frame{
			Src: l.src, Dst: l.dst,
			Name:  name,
			Inst:  p.key.inst,
			Shape: p.data.Shape(),
			Data:  p.data.Data(),
		}
		arrivals := int64(1)
		if drop {
			fr.Flags |= wire.FlagDrop
			arrivals = 0
		}
		if dup != nil {
			fr.Flags |= wire.FlagDup
			fr.Fault = dup.String()
			arrivals = 2
		}
		t.awaited.Add(arrivals)
		if editFrame != nil {
			editFrame(&fr)
		}
		t0 := time.Now()
		w.writeMu.Lock()
		err := wire.WriteFrame(w.control, &fr)
		w.writeMu.Unlock()
		rtSerializeSpans.Observe(time.Since(t0).Seconds())
		rtWireFrames.Inc()
		rtWireFrameBytes.Add(float64(8 * len(fr.Data)))
		recycle(p.data)
		if err != nil {
			if !t.closing.Load() {
				e.fail(&RunError{
					Device: l.src, Instr: name, Phase: PhasePost,
					Elapsed: e.sinceDur(),
					Err:     formatErr("%w %d: %v", ErrWorkerExit, l.src, err),
				})
			}
			continue // keep draining so posters never block forever
		}
	}
}

// readWorker drains one worker's control socket: every frame coming up
// is a transfer that finished its socket journey, decoded here straight
// into the arena buffer the receiving done will adopt and handed to the
// fabric for delivery. An EOF or read error while the run
// is still live means the worker died — a real fabric failure, surfaced
// as a structured *RunError attributed to that device.
func (t *procTransport) readWorker(w *procWorker) {
	e := t.eng
	var fr wire.Frame
	// Deserialization runs from the header being parsed — the frame's
	// bytes are all here — to the payload decoded into the tensor; the
	// wait for the frame itself is not deserialization.
	var data *tensor.Tensor
	var t0 time.Time
	into := func(shape []int) []float64 {
		t0 = time.Now()
		data = tensor.NewPooled(shape...)
		return data.Data()
	}
	for {
		err := wire.ReadFrameInto(w.control, &fr, into)
		if err != nil {
			if t.closing.Load() {
				return
			}
			cause := err
			if err == io.EOF {
				cause = formatErr("control socket closed")
			}
			e.fail(&RunError{
				Device: w.id, Phase: PhaseReceive,
				Elapsed: e.sinceDur(),
				Err:     formatErr("%w %d: %v", ErrWorkerExit, w.id, cause),
			})
			return
		}
		rtDeserializeSpans.Observe(time.Since(t0).Seconds())
		if t.awaited.Add(-1) == 0 {
			select {
			case t.drained <- struct{}{}:
			default:
			}
		}
		t.fab.deliverNamed(fr.Dst, fr.Name, fr.Inst, data, fr.Fault)
	}
}

// drain waits until every frame sent down has come back up, or the run
// aborts. A token in drained may be stale — left when the count touched
// zero mid-run — so the count, not the token, decides.
func (t *procTransport) drain() {
	for t.awaited.Load() > 0 {
		select {
		case <-t.drained:
		case <-t.eng.abort:
			return
		}
	}
}

// reapGrace is how long shutdown lets a worker take to exit on its
// control socket's close before it kills it.
const reapGrace = 5 * time.Second

// shutdown winds the process fabric down: stop the senders, wait for
// the frames still coming up, close the control sockets (the workers
// exit on EOF), join the readers, and reap every worker — escalating to
// SIGKILL only if a worker ignores the close for longer than the grace
// period.
//
// A clean run has consumed every transfer, but the second copy of a
// duplicated frame may still be on its way up: waiting for it lets the
// duplicate fail the run, as it does in process, where both copies
// are delivered at the post. An aborted run, or a worker that dies
// meanwhile, ends the wait.
func (t *procTransport) shutdown() {
	for _, l := range t.edges {
		close(l.ch)
	}
	t.sendWG.Wait()
	t.drain()
	t.closing.Store(true)
	for _, w := range t.workers {
		w.control.Close()
	}
	t.readWG.Wait()
	for _, w := range t.workers {
		done := make(chan struct{})
		go func(w *procWorker) {
			err := w.cmd.Wait()
			if err != nil {
				obs.Log().Warn("runtime.worker_exit", "run_id", t.eng.opts.RunID,
					"device", w.id, "err", err.Error())
			}
			if workerExited != nil {
				workerExited(w.id, err)
			}
			close(done)
		}(w)
		select {
		case <-done:
		case <-time.After(reapGrace):
			_ = w.cmd.Process.Kill()
			<-done
		}
	}
}
