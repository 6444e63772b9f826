//go:build unix

package runtime

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"overlap/internal/runtime/wire"
)

// socketpair returns both ends of a connected AF_UNIX stream pair as
// raw fds, close-on-exec so only deliberate ExtraFiles inheritance
// passes them to children. ForkLock guards the window between creating
// the raw fds and marking them, per the syscall package's contract.
func socketpair() ([2]int, error) {
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		syscall.ForkLock.RUnlock()
		return fds, fmt.Errorf("socketpair: %w", err)
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	syscall.ForkLock.RUnlock()
	return fds, nil
}

// pollableFile wraps an owned socket fd as an *os.File registered with
// the runtime poller: the fd is switched to non-blocking first, so a
// concurrent Close reliably unblocks goroutines parked in Read/Write —
// the property every teardown path here leans on. Each socketpair end
// is its own file description, so flipping one side never affects the
// process holding the other.
func pollableFile(fd int, name string) (*os.File, error) {
	if err := syscall.SetNonblock(fd, true); err != nil {
		return nil, fmt.Errorf("set nonblock %s: %w", name, err)
	}
	return os.NewFile(uintptr(fd), name), nil
}

// MaybeWorker turns the current process into a transport worker when
// the process-transport environment variable is set, and never returns
// in that case. Every binary that can start a TransportProc run — the
// CLIs, the serving daemon, the test binaries via TestMain — must call
// it first thing in main, because the transport spawns workers by
// re-executing os.Executable().
//
// A process without the variable returns immediately, so the call is
// free for every ordinary invocation.
func MaybeWorker() {
	id := os.Getenv(workerEnv)
	if id == "" {
		return
	}
	dev, err := strconv.Atoi(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overlap worker: bad %s=%q: %v\n", workerEnv, id, err)
		os.Exit(2)
	}
	if err := runWorker(dev, os.Getenv(workerEdgesEnv)); err != nil {
		fmt.Fprintf(os.Stderr, "overlap worker %d: %v\n", dev, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// outEdge is one outgoing edge inside a worker: an unbounded queue of
// frames waiting for the edge socket, drained in order by one goroutine
// that writes each to the socket. The queue is unbounded so the control
// reader never blocks on a slow peer — which is what keeps the parent's
// control writes prompt and teardown EOFs immediate.
type outEdge struct {
	dst  int
	sock *os.File

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*wire.Frame
	closed bool
}

func (o *outEdge) push(f *wire.Frame) {
	o.mu.Lock()
	o.queue = append(o.queue, f)
	o.mu.Unlock()
	o.cond.Signal()
}

func (o *outEdge) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.cond.Signal()
}

func (o *outEdge) pop() (*wire.Frame, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.queue) == 0 && !o.closed {
		o.cond.Wait()
	}
	if len(o.queue) == 0 {
		return nil, false
	}
	f := o.queue[0]
	o.queue = o.queue[1:]
	return f, true
}

// runWorker is the whole life of one worker process: read frames from
// the parent on the control socket (fd 3), act out each frame's
// pre-decided faults on its outgoing edge, and forward frames
// arriving from peer workers back up to the parent. It exits when the
// parent closes the control socket (normal teardown), on SIGTERM, or on
// an unrecoverable socket error.
func runWorker(dev int, edgeSpec string) error {
	control, err := pollableFile(3, "control")
	if err != nil {
		return err
	}
	out := map[int]*outEdge{}
	var inSocks []*os.File
	for i, part := range strings.Split(edgeSpec, ",") {
		if part == "" {
			continue
		}
		var kind string
		var peer, fd int
		if _, err := fmt.Sscanf(part, "%1s:%d:%d", &kind, &peer, &fd); err != nil {
			return fmt.Errorf("bad edge spec %q: %w", part, err)
		}
		sock, err := pollableFile(fd, fmt.Sprintf("edge-%d", i))
		if err != nil {
			return err
		}
		switch kind {
		case "o":
			e := &outEdge{dst: peer, sock: sock}
			e.cond = sync.NewCond(&e.mu)
			out[peer] = e
		case "i":
			inSocks = append(inSocks, sock)
		default:
			return fmt.Errorf("bad edge kind %q in %q", kind, part)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		control.Close()
	}()

	var wg sync.WaitGroup
	// One drainer per outgoing edge relays each frame to the peer as it
	// comes — twice for an injected duplicate, never for an injected
	// drop. Nothing here holds a frame for its wire: the wire is the
	// replay's, in the parent.
	for _, e := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.sock.Close()
			for {
				f, ok := e.pop()
				if !ok {
					return
				}
				if f.Flags&wire.FlagDrop != 0 {
					continue
				}
				writes := 1
				if f.Flags&wire.FlagDup != 0 {
					writes = 2
				}
				for i := 0; i < writes; i++ {
					if err := wire.WriteFrame(e.sock, f); err != nil {
						return
					}
				}
			}
		}()
	}

	// One forwarder per incoming edge: frames a peer worker finished
	// "transmitting" go straight up to the parent for delivery. The
	// control socket is shared by all forwarders, so writes serialize
	// under a mutex (frames are single Writes, but interleaving two
	// would still corrupt the stream).
	var ctlWriteMu sync.Mutex
	for _, sock := range inSocks {
		sock := sock
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sock.Close()
			var f wire.Frame
			for {
				if err := wire.ReadFrame(sock, &f); err != nil {
					return
				}
				ctlWriteMu.Lock()
				err := wire.WriteFrame(control, &f)
				ctlWriteMu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}

	// Main loop: dispatch parent frames onto their outgoing edge until
	// the parent closes the control socket (parentClosed).
	var f wire.Frame
	var readErr error
	for {
		if err := wire.ReadFrame(control, &f); err != nil {
			if !parentClosed(err) {
				readErr = err
			}
			break
		}
		e, ok := out[f.Dst]
		if !ok {
			readErr = fmt.Errorf("frame for unknown edge %d->%d", f.Src, f.Dst)
			break
		}
		// The loop reuses f's buffers, so the queued copy owns its own.
		g := f
		g.Shape = append([]int(nil), f.Shape...)
		g.Data = append([]float64(nil), f.Data...)
		e.push(&g)
	}

	for _, e := range out {
		e.close()
	}
	wg.Wait()
	control.Close()
	return readErr
}

// parentClosed reports whether a control read ended because the parent
// closed its end, which is how every run ends: EOF after a clean run,
// our own SIGTERM handler's close, or — after an aborted run, whose
// teardown closes the socket with frames still unread on either side —
// a reset, a broken pipe or a frame cut short.
func parentClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, os.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
