package autotune

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/tensor"
)

// DefaultCachePath returns the plan store's directory when Options does
// not name one: <user cache dir>/overlap/plans. A platform that reports
// no per-user cache dir gets no disk tier ("") — a stored plan's program
// text is executed, so it is never loaded from a shared temp dir.
func DefaultCachePath() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "overlap", "plans")
}

func cachePath(opts Options) string {
	if opts.CachePath != "" {
		return opts.CachePath
	}
	return DefaultCachePath()
}

// Key is the identity a (program, machine, host) tuple tunes and stores
// its plan under: program body (ProgramFingerprint, the name left out),
// machine spec, ring size, and the host's parallelism — the einsum
// kernels run on GOMAXPROCS workers, and intra-op parallelism shifts
// measured compute spans, which shifts which overlap plan wins. TopK and
// repeats only affect how hard the search looks. The wire scale is not
// in the key although it decides whether decomposition wins: it is
// measured on the host, not given, so the plan carries it
// (Plan.TimeScale) and every run of the plan injects it. Both tiers of
// the plan store key with this one function, so a process started under
// another GOMAXPROCS never serves a plan measured under this one, and
// every name of one body finds one plan.
func Key(c *hlo.Computation, spec machine.Spec, numDevices int) string {
	return SpecKeyOf(spec).Key(ProgramFingerprint(c), numDevices)
}

// SpecKey is a plan key's machine part: the first 16 hex digits of the
// sha256 of the spec's Fingerprint. A caller that names every plan on
// one spec — the daemon, once per request — computes it once.
type SpecKey string

// SpecKeyOf formats and digests spec's fingerprint.
func SpecKeyOf(spec machine.Spec) SpecKey {
	return SpecKey(fmt.Sprintf("%x", sha256.Sum256([]byte(spec.Fingerprint())))[:16])
}

// Key returns what Key(c, spec, numDevices) does, for a caller that
// already holds c's ProgramFingerprint and spec's SpecKey. The daemon
// also names each request through it, from a digest of the program's
// text with its name: the request key it remembers per request shape,
// so a warm request need not rebuild its graph. The host's part is never
// remembered: its parallelism is read here, on every call.
func (k SpecKey) Key(programFingerprint string, numDevices int) string {
	return programFingerprint + "|" + string(k) + "|n=" + strconv.Itoa(numDevices) +
		"|kw=" + strconv.Itoa(tensor.KernelWorkers())
}

// planPath is where the store keeps the plan compiled under key: one
// file per body, so a lookup reads one file, a store writes one,
// and stores of different plans — from one process or several — never
// touch each other's.
func planPath(dir, key string) string {
	return filepath.Join(dir, fmt.Sprintf("%x.json", sha256.Sum256([]byte(key))))
}

// loadPlan returns the plan stored under key with the program parsed
// to verify it, or nil: a missing file and one written under another
// PlanVersion are plain misses; one that does not decode, or that is
// not the plan asked for (another fingerprint or ring size under this
// name), is a miss counted as corruption. Either way the next store
// overwrites it — tuning never fails because the store rotted.
func loadPlan(dir, key string, numDevices int) (*Plan, *hlo.Computation) {
	data, err := os.ReadFile(planPath(dir, key))
	if err != nil {
		return nil, nil
	}
	p, prog, err := DecodePlanProgram(data)
	switch {
	case errors.Is(err, errPlanVersion):
		return nil, nil
	case err != nil, p.Fingerprint != key, p.Devices != numDevices:
		atCacheCorrupt.Inc()
		return nil, nil
	}
	return p, prog
}

// storePlan writes the plan under its fingerprint — the bytes -plan-out
// writes and -plan-in reads — creating the directory, private to the
// user, as needed.
func storePlan(dir string, p *Plan) error {
	data, err := p.EncodeJSON()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	return writeFileAtomic(planPath(dir, p.Fingerprint), data)
}

// writeFileAtomic replaces path's contents via a temp file in the same
// directory and a rename, so a crash mid-write can never leave a
// half-written plan and concurrent stores of one key need no lock:
// readers see one whole plan or another, never a torn file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".autotune-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // committed: the deferred cleanup must not remove it
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
