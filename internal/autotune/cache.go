package autotune

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/tensor"
)

// cacheVersion invalidates every stored decision when the entry layout
// or the meaning of a knob changes. Version 2: keys gained the kernel
// worker count, which changes measured runtimes. Version 3: keys gained
// the telemetry-instrumentation toggle (recording overhead shifts
// measured spans) and entries encode knobs via core.Knobs. Version 4:
// the knob space gained GradBucketBytes (gradient bucketing), so
// decisions made over the smaller space are stale. Version 5: the knob
// space gained KernelSplitK (the kernel engine's planned split-K
// factor) and keys gained the ambient factor, so older decisions
// neither searched the factor nor recorded the environment it ran in.
// Version 6: keys lost the ambient factor again — the tuned factor is
// stamped into the program text, so no ambient value affects a plan.
const cacheVersion = 6

// DefaultCachePath returns where decisions persist when Options does
// not say otherwise: <user cache dir>/overlap/autotune.json, falling
// back to the temp dir when the platform reports no cache dir.
func DefaultCachePath() string {
	base, err := os.UserCacheDir()
	if err != nil {
		base = os.TempDir()
	}
	return filepath.Join(base, "overlap", "autotune.json")
}

func cachePath(opts Options) string {
	if opts.CachePath != "" {
		return opts.CachePath
	}
	return DefaultCachePath()
}

// Key is the decision identity a (program, machine, environment) tuple
// tunes and caches under: program shape, machine spec, ring size, the
// einsum-kernel worker count (intra-op parallelism shifts measured
// compute spans, which shifts which overlap plan wins), and whether
// telemetry instrumentation is recording (its bounded overhead still
// moves measured spans). Anything else (TopK, repeats, wire scale) only
// affects how hard the search looks, not what it is searching for.
// Every plan- or decision-cache layer must key with this one function
// so a SetKernelWorkers or obs.SetEnabled change can never serve a
// stale decision.
func Key(c *hlo.Computation, spec machine.Spec, numDevices int) string {
	return KeyOf(ProgramFingerprint(c), spec, numDevices)
}

// KeyOf is Key for a caller that already holds the program's
// ProgramFingerprint — the daemon remembers it per request shape so a
// warm request need not rebuild its graph to name its plan. Only the
// program half may be remembered: the environment half (kernel workers,
// instrumentation) is read here, live, on every call.
func KeyOf(programFingerprint string, spec machine.Spec, numDevices int) string {
	specFP := fmt.Sprintf("%x", sha256.Sum256([]byte(spec.Fingerprint())))[:16]
	instr := 0
	if obs.Default().Enabled() {
		instr = 1
	}
	return fmt.Sprintf("%s|%s|n=%d|kw=%d|obs=%d",
		programFingerprint, specFP, numDevices, tensor.KernelWorkers(), instr)
}

// cacheEntry is one persisted decision.
type cacheEntry struct {
	BestName       string              `json:"best_name"`
	Baseline       bool                `json:"baseline,omitempty"`
	Options        core.Knobs          `json:"options"`
	PredictedSec   float64             `json:"predicted_sec"`
	MeasuredSec    float64             `json:"measured_sec"`
	Calibration    machine.Calibration `json:"calibration"`
	Residual       float64             `json:"residual"`
	Created        string              `json:"created"`
	Devices        int                 `json:"devices"`
	SpecName       string              `json:"spec_name"`
	SearchedUnique int                 `json:"searched_unique"`
}

// fill reconstitutes a warm-cache Result from a stored entry: the
// decision and calibration come back, but no candidates, because no
// search ran.
func (e cacheEntry) fill(res *Result, spec machine.Spec) {
	res.CacheHit = true
	res.BestName = e.BestName
	res.BestIsBaseline = e.Baseline
	res.Best = e.Options.Options(spec)
	res.PredictedWall = e.PredictedSec
	res.MeasuredWall = e.MeasuredSec
	res.Residual = e.Residual
	if e.Calibration != (machine.Calibration{}) {
		res.Calibration = e.Calibration
		res.CalibratedSpec = e.Calibration.Apply(spec)
	}
}

type cacheFile struct {
	Version int                   `json:"version"`
	Entries map[string]cacheEntry `json:"entries"`
}

// loadCache reads the cache file; a missing, unreadable, corrupt, or
// version-mismatched file degrades to an empty cache — tuning must
// never fail because a cache rotted. A file that exists but does not
// parse (e.g. truncated by a crash mid-write before writes were atomic)
// is counted as corrupt so the poisoning is visible in telemetry.
func loadCache(path string) cacheFile {
	empty := cacheFile{Version: cacheVersion, Entries: map[string]cacheEntry{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return empty
	}
	var f cacheFile
	if json.Unmarshal(data, &f) != nil || f.Entries == nil {
		atCacheCorrupt.Inc()
		return empty
	}
	if f.Version != cacheVersion {
		return empty
	}
	return f
}

func cacheLookup(path, key string) (cacheEntry, bool) {
	e, ok := loadCache(path).Entries[key]
	return e, ok
}

// cacheStoreMu serialises load → merge → rename within this process:
// the daemon compiles distinct fingerprints on concurrent goroutines,
// and unserialised stores to one file each rename over the others'
// entries.
var cacheStoreMu sync.Mutex

// cacheStore merges the decision into the cache file, creating the
// directory as needed. Stores from separate processes may still
// interleave read-modify-write; the loser's older entries survive
// because the file is re-read immediately before writing.
func cacheStore(path, key string, numDevices int, res *Result) error {
	cacheStoreMu.Lock()
	defer cacheStoreMu.Unlock()
	f := loadCache(path)
	f.Entries[key] = cacheEntry{
		BestName:       res.BestName,
		Baseline:       res.BestIsBaseline,
		Options:        res.Best.Knobs(),
		PredictedSec:   res.PredictedWall,
		MeasuredSec:    res.MeasuredWall,
		Calibration:    res.Calibration,
		Residual:       res.Residual,
		Created:        time.Now().UTC().Format(time.RFC3339),
		Devices:        numDevices,
		SpecName:       res.CalibratedSpec.Name,
		SearchedUnique: countUnique(res.Candidates),
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic replaces path's contents via a temp file in the same
// directory and a rename, so a crash mid-write can never leave a
// half-written JSON that poisons every later run: readers see either
// the old cache or the new one, never a torn file.
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
	if err := tmp.Chmod(0o644); err != nil {
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

func countUnique(cands []Candidate) int {
	n := 0
	for _, c := range cands {
		if c.Err == "" && c.DuplicateOf == "" {
			n++
		}
	}
	return n
}
