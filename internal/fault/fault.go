// Package fault is the deterministic fault-injection plane of the
// simulated platform. The paper's central guarantee is that prefetch and
// release hints are *non-binding*: dropped prefetches, memory pressure,
// slow disks, and transient I/O errors may change a run's timing but
// never its results (§3.2). This package makes those failure modes
// injectable so the guarantee is an executable property instead of
// prose.
//
// Everything is deterministic. Random decisions (transient errors,
// latency spikes, prefetch drops) are drawn from seeded splitmix64
// streams — one per storage device plus one for the memory system — so a
// given (profile, seed) always produces the same fault schedule for the
// same request sequence. Brownouts are pure functions of simulated time,
// with seed-staggered phase per device. No wall-clock state is consulted
// anywhere, so faulted runs replay exactly under sim.Clock.
//
// The layers consume the injector as follows: each storage backend asks
// Attempt before servicing a request (transient error / latency
// multiplier / brownout), keyed by its device ID, and applies the
// bounded RetryPolicy on failure, requeueing an exhausted request unless
// it may fail (stripefs lets only prefetches fail, and abandons them);
// and the VM asks DropPrefetch to model synthetic memory-pressure
// spikes. A nil *Injector is valid
// everywhere and injects nothing at the cost of one nil check per
// decision point.
//
// The fault model is tier-oblivious, but its physical reading follows
// the backend consuming it: on the disk tier an Attempt verdict is a
// media error or a whole-disk brownout, on the far-memory tier the
// device asks once per network round trip, so error rates are link
// losses and brownout windows are network partitions failing whole
// batches.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// MaxRate caps every per-attempt probability so that retries terminate:
// with failure probability strictly below one, a retried request succeeds
// in bounded expected time, and deterministically for any fixed seed.
const MaxRate = 0.95

// RetryPolicy bounds how a disk retries a failing request. All delays are
// simulated time, so retry schedules are fully deterministic.
type RetryPolicy struct {
	// MaxAttempts is the total number of service attempts per submitted
	// request (first try included); <= 0 means the default (4).
	MaxAttempts int
	// BackoffBase is the delay before the first retry; it doubles each
	// further retry. <= 0 means the default (500µs).
	BackoffBase sim.Time
	// BackoffMax caps the exponential backoff; <= 0 means the default
	// (8ms).
	BackoffMax sim.Time
	// Timeout bounds the total simulated time a request may spend in
	// service across attempts and backoffs; a retry that would start
	// after the budget instead fails the request permanently. <= 0 means
	// the default (60ms).
	Timeout sim.Time
}

// DefaultRetryPolicy returns the retry policy used when a profile leaves
// its Retry field zero.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BackoffBase: 500 * sim.Microsecond,
		BackoffMax:  8 * sim.Millisecond,
		Timeout:     60 * sim.Millisecond,
	}
}

// Normalized returns the policy with zero fields replaced by defaults.
func (p RetryPolicy) Normalized() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = d.BackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = d.BackoffMax
	}
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	return p
}

// Backoff returns the delay before retrying after the given failed
// attempt (1-based): BackoffBase doubling per attempt, capped at
// BackoffMax.
func (p RetryPolicy) Backoff(attempt int) sim.Time {
	b := p.BackoffBase
	for i := 1; i < attempt && b < p.BackoffMax; i++ {
		b *= 2
	}
	if b > p.BackoffMax {
		b = p.BackoffMax
	}
	return b
}

// Profile describes one fault workload. The zero value injects nothing.
type Profile struct {
	// Name labels the profile in metrics and test output.
	Name string
	// Seed selects the deterministic fault schedule. Two runs of the
	// same program under the same profile and seed inject identical
	// faults.
	Seed uint64

	// ReadErrorRate and WriteErrorRate are the per-attempt probabilities
	// that a device read or write attempt fails transiently (capped at
	// MaxRate so retries terminate). On the far-memory tier an attempt is
	// one network round trip, so these are link-loss rates.
	ReadErrorRate  float64
	WriteErrorRate float64

	// SlowRate is the per-attempt probability of a latency spike, which
	// multiplies the attempt's positional service time by SlowFactor
	// (the slow-disk model).
	SlowRate   float64
	SlowFactor float64

	// DropRate is the probability that the OS drops an otherwise
	// acceptable prefetch hint — a synthetic memory-pressure spike.
	// Non-binding hints make this safe by design.
	DropRate float64

	// BrownoutPeriod/BrownoutDuration switch every device into a
	// periodic whole-device outage: each device is unavailable for
	// Duration out of every Period, with a seed-derived phase offset per
	// device so the array browns out staggered, not in lockstep. On the
	// far-memory tier a window is a network partition: every round trip
	// inside it fails. Zero disables.
	BrownoutPeriod   sim.Time
	BrownoutDuration sim.Time

	// Retry overrides the devices' retry policy; zero fields take
	// defaults.
	Retry RetryPolicy
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.ReadErrorRate > 0 || p.WriteErrorRate > 0 ||
		p.SlowRate > 0 || p.DropRate > 0 ||
		(p.BrownoutPeriod > 0 && p.BrownoutDuration > 0)
}

// Validate checks the profile for internal consistency.
func (p Profile) Validate() error {
	checkRate := func(name string, v float64) error {
		if v < 0 || v > MaxRate {
			return fmt.Errorf("fault: %s %g outside [0, %g]", name, v, MaxRate)
		}
		return nil
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"read error rate", p.ReadErrorRate},
		{"write error rate", p.WriteErrorRate},
		{"slowdown rate", p.SlowRate},
		{"prefetch drop rate", p.DropRate},
	} {
		if err := checkRate(r.name, r.v); err != nil {
			return err
		}
	}
	if p.SlowRate > 0 && p.SlowFactor < 1 {
		return fmt.Errorf("fault: slow factor %g must be >= 1", p.SlowFactor)
	}
	if p.BrownoutDuration > 0 || p.BrownoutPeriod > 0 {
		if p.BrownoutPeriod <= 0 || p.BrownoutDuration <= 0 {
			return fmt.Errorf("fault: brownout needs both period (%v) and duration (%v)", p.BrownoutPeriod, p.BrownoutDuration)
		}
		if p.BrownoutDuration >= p.BrownoutPeriod {
			return fmt.Errorf("fault: brownout duration %v must be below period %v (disks must recover)",
				p.BrownoutDuration, p.BrownoutPeriod)
		}
	}
	return nil
}

// profiles are the named fault workloads the CLI and the test harness
// use. "none" is the explicit zero profile.
var profiles = map[string]Profile{
	"none": {Name: "none"},
	"flaky": {
		Name:           "flaky",
		ReadErrorRate:  0.08,
		WriteErrorRate: 0.08,
	},
	"slow": {
		Name:       "slow",
		SlowRate:   0.25,
		SlowFactor: 8,
	},
	"pressure": {
		Name:     "pressure",
		DropRate: 0.35,
	},
	"brownout": {
		Name:             "brownout",
		BrownoutPeriod:   150 * sim.Millisecond,
		BrownoutDuration: 30 * sim.Millisecond,
	},
	"chaos": {
		Name:             "chaos",
		ReadErrorRate:    0.05,
		WriteErrorRate:   0.05,
		SlowRate:         0.10,
		SlowFactor:       6,
		DropRate:         0.15,
		BrownoutPeriod:   200 * sim.Millisecond,
		BrownoutDuration: 25 * sim.Millisecond,
	},
}

// ProfileByName returns a named fault profile (none, flaky, slow,
// pressure, brownout, chaos).
func ProfileByName(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// ProfileNames returns the available profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseSpec parses a CLI fault specification: comma-separated key=value
// pairs among "profile=<name>" and "seed=<N>", with a bare name accepted
// as shorthand for profile=<name> ("brownout", "profile=chaos,seed=7").
func ParseSpec(spec string) (Profile, error) {
	p := Profile{Name: "none"}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			key, val = "profile", key
		}
		switch key {
		case "profile":
			base, okName := ProfileByName(val)
			if !okName {
				return Profile{}, fmt.Errorf("fault: unknown profile %q (want one of %s)",
					val, strings.Join(ProfileNames(), ", "))
			}
			seed := p.Seed
			p = base
			p.Seed = seed
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Profile{}, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			p.Seed = n
		default:
			return Profile{}, fmt.Errorf("fault: unknown spec key %q (want profile or seed)", key)
		}
	}
	return p, nil
}

// Counts tallies what an injector actually injected over a run. The
// fault-free run of any profile named "none" reports all zeros.
type Counts struct {
	ReadErrors       int64 // transient read-attempt failures
	WriteErrors      int64 // transient write-attempt failures
	Slowdowns        int64 // latency-spiked attempts
	BrownoutFailures int64 // attempts failed inside a brownout window
	PrefetchDrops    int64 // prefetch hints dropped under synthetic pressure
}

// Total returns the sum of all injected-fault counts.
func (c Counts) Total() int64 {
	return c.ReadErrors + c.WriteErrors + c.Slowdowns + c.BrownoutFailures + c.PrefetchDrops
}

// metricNames is the injector's metrics table, in readMetrics' order.
var metricNames = []string{
	"fault.read_errors", "fault.write_errors", "fault.slowdowns",
	"fault.brownout_failures", "fault.prefetch_drops",
}

// readMetrics is the injector's obs.Source.
func (i *Injector) readMetrics(c []int64, _ []float64) {
	n := &i.n
	copy(c, []int64{n.ReadErrors, n.WriteErrors, n.Slowdowns, n.BrownoutFailures, n.PrefetchDrops})
}

// Verdict is the injector's decision about one disk service attempt.
type Verdict struct {
	// Fail marks the attempt a transient failure: the disk consumes the
	// attempt's service time and then applies its retry policy.
	Fail bool
	// Slow multiplies the attempt's positional service time; it is 1
	// when no latency spike was injected.
	Slow float64
	// Until is set when the attempt failed inside a brownout window: the
	// device is down, serves nothing, and starts no attempt before Until,
	// when the window ends. Zero otherwise.
	Until sim.Time
}

// Injector is one run's fault plane. It is driven by the run's single
// simulator goroutine, like the disks and the VM, so its accounting uses
// plain fields, which the metrics registry reads through the injector's
// source. All methods are safe on a nil receiver and then inject nothing.
type Injector struct {
	prof  Profile
	retry RetryPolicy

	devStreams []stream // per-device decision streams, grown on demand
	vmStream   stream   // prefetch-drop decisions

	n       Counts
	metrics obs.Source
	track   *obs.Track // injected-fault instants; nil when tracing is off
}

// NewInjector builds an injector for one run. Its metrics register in
// reg as "fault.*" (nil registers nowhere); injected faults become
// instants on track (nil disables). The profile must Validate.
func NewInjector(p Profile, reg *obs.Registry, track *obs.Track) *Injector {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	i := &Injector{
		prof:     p,
		retry:    p.Retry.Normalized(),
		vmStream: newStream(p.Seed, ^uint64(0)),
		track:    track,
	}
	i.metrics = obs.Source{Counters: metricNames, Fill: i.readMetrics}
	reg.Register(&i.metrics)
	return i
}

// Profile returns the profile the injector was built with (zero on nil).
func (i *Injector) Profile() Profile {
	if i == nil {
		return Profile{}
	}
	return i.prof
}

// Retry returns the disks' normalized retry policy. On a nil injector it
// returns the defaults, which are inert without failures to retry.
func (i *Injector) Retry() RetryPolicy {
	if i == nil {
		return DefaultRetryPolicy()
	}
	return i.retry
}

// Counts returns a snapshot of the injected-fault tallies (zero on nil).
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	return i.n
}

// devStream returns device d's decision stream, creating streams lazily.
func (i *Injector) devStream(d int) *stream {
	for len(i.devStreams) <= d {
		i.devStreams = append(i.devStreams, newStream(i.prof.Seed, uint64(len(i.devStreams))))
	}
	return &i.devStreams[d]
}

// brownoutEnd returns when the brownout window disk d is in at now ends,
// or 0 when d is up at now. It is a pure function of (profile, seed,
// disk, time): each disk's window has a seed-derived phase offset within
// the period.
func (i *Injector) brownoutEnd(d int, now sim.Time) sim.Time {
	p := i.prof
	if p.BrownoutPeriod <= 0 || p.BrownoutDuration <= 0 {
		return 0
	}
	off := sim.Time(mix(p.Seed, uint64(d), 0xb12f) % uint64(p.BrownoutPeriod))
	if in := (now + off) % p.BrownoutPeriod; in < p.BrownoutDuration {
		return now + p.BrownoutDuration - in
	}
	return 0
}

// Attempt decides the fate of one disk service attempt: a brownout (Fail,
// and Until the window's end) or transient failure (Fail), a latency spike
// (Slow > 1), or a clean pass. Decisions draw from disk d's private
// stream, so one disk's request sequence determines its fault sequence
// independently of its siblings.
func (i *Injector) Attempt(d int, write bool, now sim.Time) Verdict {
	if i == nil {
		return Verdict{Slow: 1}
	}
	v := Verdict{Slow: 1}
	if end := i.brownoutEnd(d, now); end != 0 {
		i.n.BrownoutFailures++
		v.Fail, v.Until = true, end
		i.track.InstantArg("brownout", "fault", now, "disk", int64(d))
		return v
	}
	s := i.devStream(d)
	rate := i.prof.ReadErrorRate
	name := "read-error"
	if write {
		rate, name = i.prof.WriteErrorRate, "write-error"
	}
	if s.chance(rate) {
		if write {
			i.n.WriteErrors++
		} else {
			i.n.ReadErrors++
		}
		v.Fail = true
		i.track.InstantArg(name, "fault", now, "disk", int64(d))
		return v
	}
	if i.prof.SlowRate > 0 && s.chance(i.prof.SlowRate) {
		i.n.Slowdowns++
		v.Slow = i.prof.SlowFactor
		i.track.InstantArg("slowdown", "fault", now, "disk", int64(d))
	}
	return v
}

// DropPrefetch decides whether a synthetic memory-pressure spike drops
// an otherwise acceptable prefetch hint for the given page.
func (i *Injector) DropPrefetch(now sim.Time, page int64) bool {
	if i == nil || i.prof.DropRate <= 0 {
		return false
	}
	if !i.vmStream.chance(i.prof.DropRate) {
		return false
	}
	i.n.PrefetchDrops++
	i.track.InstantArg("pressure-drop", "fault", now, "page", page)
	return true
}

// ---- deterministic PRNG -------------------------------------------------

// stream is a splitmix64 sequence. Distinct streams for distinct
// consumers keep one consumer's decision sequence independent of how its
// siblings interleave.
type stream struct{ s uint64 }

// newStream derives an independent stream from (seed, lane).
func newStream(seed, lane uint64) stream {
	return stream{s: mix(seed, lane, 0x5eed)}
}

// next returns the next 64-bit value of the stream.
func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance reports true with probability p, consuming one draw. p <= 0
// consumes nothing (the common zero-rate fast path).
func (r *stream) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(r.next()>>11)/(1<<53) < p
}

// mix hashes a few words into one, for stream derivation and brownout
// phases.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
