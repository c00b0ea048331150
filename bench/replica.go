package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"nadino/internal/core"
	"nadino/internal/flightrec"
	"nadino/internal/ingress"
	"nadino/internal/sim"
)

const (
	// warmupPad follows connection setup (P.QPSetupTime) before the window
	// opens.
	warmupPad = 10 * time.Millisecond
	// drain runs after the window with no new requests, so replies to
	// window requests can land; anything still missing then has failed.
	drain = 100 * time.Millisecond
	// readyStep is how far the engine advances between readiness checks.
	readyStep = time.Millisecond
)

// replica is one fresh cluster driven through setup, warmup, the measured
// window and the drain.
type replica struct {
	cfg core.Config
	c   *core.Cluster
	eng *sim.Engine
	// rng generates the inputs (arrival times, chain picks). It is the
	// benchmark's own, seeded per replica; the model never draws from it.
	rng              *rand.Rand
	winStart, winEnd time.Duration
	onReply          func(ingress.Response)
	rec              *flightrec.Recorder // set by workloads that attach one

	submitted, replied uint64          // every request sent and reply received, all phases
	issued             int             // requests sent inside the window
	lat                []time.Duration // due->reply latency of window requests that replied
	inWindow           int             // replies landing inside the window
	offDue             time.Duration   // worst gap between an arrival's due time and its issue
	digest             hash.Hash64     // every reply's (id, stamp, arrival), in order
	digestBuf          [24]byte

	probe *layerProbe // per-layer instrumentation; nil on timed replicas
}

// issuing reports whether clients may still send: only up to the window end.
func (r *replica) issuing() bool { return r.eng.Now() < r.winEnd }

// checkDue records how far an arrival fired from its due time. Arrivals
// are engine events, so in virtual time this is always zero.
func (r *replica) checkDue(due time.Duration) {
	off := r.eng.Now() - due
	if off < 0 {
		off = -off
	}
	if off > r.offDue {
		r.offDue = off
	}
}

func (r *replica) submit(chain string, client int, reply func(ingress.Response)) {
	r.submitted++
	if r.eng.Now() < r.winStart {
		r.c.SubmitChain(chain, client, reply)
		return
	}
	r.issued++
	if r.probe == nil {
		r.c.SubmitChain(chain, client, reply)
		return
	}
	t := time.Now()
	r.c.SubmitChain(chain, client, reply)
	r.probe.submitted(t, time.Since(t), r.submitted)
}

// observe is every request's reply callback. A request's latency runs from
// its stamp, which is its due time for open-loop arrivals.
func (r *replica) observe(resp ingress.Response) {
	now := r.eng.Now()
	r.replied++
	binary.LittleEndian.PutUint64(r.digestBuf[0:], resp.ID)
	binary.LittleEndian.PutUint64(r.digestBuf[8:], uint64(resp.Stamp))
	binary.LittleEndian.PutUint64(r.digestBuf[16:], uint64(now))
	r.digest.Write(r.digestBuf[:])
	if now >= r.winStart && now < r.winEnd {
		r.inWindow++
	}
	if resp.Stamp >= r.winStart && resp.Stamp < r.winEnd {
		r.lat = append(r.lat, now-resp.Stamp)
		if r.probe != nil {
			r.probe.request(resp.ID, resp.Stamp, now)
		}
	}
}

// replicaResult is what one replica measured.
type replicaResult struct {
	setup, wall time.Duration // host: NewCluster until ready; the window's RunUntil
	issued      int           // window requests sent
	done        int           // of those, answered by the end of the drain
	inWindow    int           // replies landing in the window
	lat         []time.Duration
	mallocs     uint64  // heap allocations during the window
	heap        uint64  // live heap the replica added, after a GC at window end
	dpCores     float64 // modeled data-plane cores over the window
	digest      uint64  // modeled digest: equal for equal seeds, traced or not
	// setupSpeed and speed scale the setup and window times to the
	// reference host speed (see calibrate.go); timed replicas only.
	setupSpeed, speed float64
	// Traced replicas only: per-layer readings, the profile's sample count
	// and the process CPU time it covers.
	layers      map[string]float64
	profSamples int64
	cpu         time.Duration
}

// runReplica builds a fresh cluster for seed and measures one window. With
// sp set, speed probes bracket set-up and the window. With ts set it is a
// traced replica: per-layer probes, spans and a CPU profile ride along, and
// the window runs in slices.
func runReplica(wl *workload, seed int64, ts *traceSession, sp *speedTrack) (*replicaResult, error) {
	cfg, err := wl.config(seed)
	if err != nil {
		return nil, err
	}
	// Start every replica from a collected heap, and count only what it
	// adds: earlier replicas' samples stay live for pooling.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	goroutines := runtime.NumGoroutine()
	t0 := time.Now()
	c := core.NewCluster(cfg)
	defer stop(c.Eng, goroutines)
	r := &replica{cfg: cfg, c: c, eng: c.Eng, rng: rand.New(rand.NewSource(seed)), digest: fnv.New64a()}
	r.onReply = r.observe
	r.winStart = c.P.QPSetupTime + warmupPad
	r.winEnd = r.winStart + wl.window
	start := wl.load(r)
	for !c.Ready() && c.Eng.Now() < r.winStart {
		c.Eng.RunUntil(c.Eng.Now() + readyStep)
	}
	res := &replicaResult{setup: time.Since(t0)}
	if !c.Ready() || c.Eng.Now() >= r.winStart {
		return nil, fmt.Errorf("%s: not ready by %v, the window start is %v", wl.name, c.Eng.Now(), r.winStart)
	}
	if sp != nil {
		res.setupSpeed = sp.next()
	}
	tWarm := time.Now()
	start()
	c.Eng.RunUntil(r.winStart)
	if ts != nil {
		r.probe = ts.newProbe(r, t0, tWarm)
		if err := r.probe.begin(); err != nil {
			return nil, err
		}
	}

	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	net0 := c.NetCPUStats(time.Second)
	t1 := time.Now()
	if r.probe != nil {
		r.probe.runWindow()
	} else {
		c.Eng.RunUntil(r.winEnd)
	}
	res.wall = time.Since(t1)
	if r.probe != nil {
		r.probe.end(res.wall)
	}
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - mallocs0
	net1 := c.NetCPUStats(time.Second)
	// NetCPUStats divides cumulative busy time by its argument; with one
	// second, FnCores is busy seconds, so the difference is the window's.
	res.dpCores = net1.PinnedCores + (net1.FnCores-net0.FnCores)/wl.window.Seconds()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heap0 {
		res.heap = ms.HeapAlloc - heap0
	}
	if sp != nil {
		res.speed = sp.next()
	}

	c.Eng.RunUntil(r.winEnd + drain)
	res.issued, res.done, res.inWindow, res.lat = r.issued, len(r.lat), r.inWindow, r.lat
	res.digest = r.digest.Sum64()
	if err := r.check(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
	}
	if r.probe != nil {
		res.layers, res.profSamples, err = r.probe.finish()
		if err != nil {
			return nil, err
		}
		res.cpu = r.probe.cpu
	}
	return res, nil
}

// stop halts the engine and waits until its process goroutines have exited,
// so the next replica starts with this cluster already garbage.
func stop(eng *sim.Engine, goroutines int) {
	eng.Stop()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// check is the replica's correctness fence, run after the drain.
func (r *replica) check() error {
	if r.offDue != 0 {
		return fmt.Errorf("an arrival fired %v from its due time", r.offDue)
	}
	if r.issued == 0 {
		return fmt.Errorf("no requests issued in the window")
	}
	// Conservation: every reply answers a distinct request, and the
	// cluster counted exactly the replies the clients saw.
	if r.replied > r.submitted || len(r.lat) > r.issued {
		return fmt.Errorf("%d replies to %d requests (%d/%d in the window)", r.replied, r.submitted, len(r.lat), r.issued)
	}
	if got := r.c.Completed.Total(); got != r.replied {
		return fmt.Errorf("cluster completed %d requests, clients received %d replies", got, r.replied)
	}
	for _, l := range r.lat {
		if l <= 0 {
			return fmt.Errorf("non-positive latency %v", l)
		}
	}
	return nil
}
