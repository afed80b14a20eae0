package main

import (
	"fmt"
	"sync"
	"time"

	gunfu "github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/director"
)

const (
	deployAgents  = 2
	deployTimeout = 60 * time.Second
	// statsEvery is the heartbeat window of a deploy, and deployWindows
	// the number of them a deploy measures.
	statsEvery    = 16384
	deployWindows = 4
)

// deploySpec is sh deployed with the steady workloads' task count and
// packet size: a warmup of at least one packet per flow (enough to
// fill the simulated LLC for 65,536 NAT flows), then deployWindows
// statsEvery-packet measured windows.
func deploySpec(sh shape, seed int64) director.DeploySpec {
	d := sh.spec
	d.Warmup = uint64(sh.flows)
	if d.Warmup < statsEvery {
		d.Warmup = statsEvery
	}
	d.Packets = deployWindows * statsEvery
	d.StatsEvery = statsEvery
	d.PacketBytes = packetBytes
	d.Tasks = gunfu.DefaultWorkerConfig().Tasks
	d.Seed = seed
	d.Latency = true
	return d
}

// cluster is a director with in-process agents on 127.0.0.1.
type cluster struct {
	d      *director.Director
	agents []*director.Agent
	wg     sync.WaitGroup
}

// startCluster listens, starts the agents, each with its default-on
// flight recorder, and waits until they have registered.
func startCluster(b *bench, hooks *deployHooks) (*cluster, error) {
	c := &cluster{d: director.New()}
	addr, err := c.d.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < deployAgents; i++ {
		a, err := director.NewAgent(fmt.Sprintf("agent-%d", i), director.DefaultRegistry())
		if err != nil {
			c.close()
			return nil, err
		}
		a.DumpDir = b.outDir
		a.OnStats = hooks.agentWindow
		c.agents = append(c.agents, a)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = a.Run(addr) // ends when the director closes the connection
		}()
	}
	c.d.SetStatsHandler(hooks.heartbeat)
	if err := c.d.WaitAgents(deployAgents, 10*time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close shuts the director and agents down and waits for the agent
// goroutines to end.
func (c *cluster) close() {
	_ = c.d.Close()
	for _, a := range c.agents {
		a.Stop()
	}
	c.wg.Wait()
}

// deployHooks time the serving path from the public hooks:
// Agent.OnStats fires on the agent before a heartbeat goes on the
// wire, the director's stats handler when it arrives.
type deployHooks struct {
	mu     sync.Mutex
	spans  *spanLog
	parent int
	group  string

	call, first, last time.Time
	prev              map[string]time.Time // previous OnStats per agent
	sent              map[string]time.Time // OnStats time per agent/window

	windowNs, lagUs, firstMs, tailMs []float64
}

// begin starts one DeployAll.
func (h *deployHooks) begin(seq int, call time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.group = fmt.Sprintf("deploy-%d", seq)
	h.parent = h.spans.open(0, "director.DeployAll", h.group, call)
	h.call, h.first, h.last = call, time.Time{}, time.Time{}
	h.prev = map[string]time.Time{}
	h.sent = map[string]time.Time{}
}

// end closes the deploy begun last.
func (h *deployHooks) end(ret time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.spans.close(h.parent, ret)
	if !h.first.IsZero() {
		h.firstMs = append(h.firstMs, ms(h.first.Sub(h.call)))
		h.tailMs = append(h.tailMs, ms(ret.Sub(h.last)))
	}
}

func (h *deployHooks) agentWindow(r director.StatsReport) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if t, ok := h.prev[r.Agent]; ok && r.Packets > 0 {
		h.windowNs = append(h.windowNs, float64(now.Sub(t))/float64(r.Packets))
		h.spans.add(h.parent, "agent.window", h.group, t, now)
	}
	h.prev[r.Agent] = now
	h.sent[fmt.Sprintf("%s/%d", r.Agent, r.Window)] = now
}

func (h *deployHooks) heartbeat(r director.StatsReport) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if t, ok := h.sent[fmt.Sprintf("%s/%d", r.Agent, r.Window)]; ok {
		h.lagUs = append(h.lagUs, float64(now.Sub(t))/float64(time.Microsecond))
		h.spans.add(h.parent, "director.heartbeat", h.group, t, now)
	}
	if h.first.IsZero() {
		h.first = now
	}
	h.last = now
}

func (h *deployHooks) setDirectorMetrics(b *bench) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b.set("director.heartbeat_lag_us_p50", median(h.lagUs), "us")
	b.set("director.first_window_ms", median(h.firstMs), "ms")
	b.set("director.result_tail_ms", median(h.tailMs), "ms")
	b.set("agent.window_ns_per_pkt", median(h.windowNs), "ns")
}

// deployRun is one measured DeployAll.
type deployRun struct {
	results []director.Result
	err     error
}

// deployOnce runs one DeployAll, numbered seq.
func deployOnce(c *cluster, h *deployHooks, spec director.DeploySpec, seq int) deployRun {
	h.begin(seq, time.Now())
	res, err := c.d.DeployAll(spec, deployTimeout)
	h.end(time.Now())
	return deployRun{results: res, err: err}
}

// referenceDeploy runs spec in-process the way an agent does: the
// registry's factory, an interleaved worker, the warmup, then
// StatsEvery-sized Run calls.
func referenceDeploy(spec director.DeploySpec) (director.Result, error) {
	as := gunfu.NewAddressSpace()
	prog, src, err := director.DefaultRegistry()[spec.NF](as, spec)
	if err != nil {
		return director.Result{}, err
	}
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return director.Result{}, err
	}
	cfg := gunfu.DefaultWorkerConfig()
	cfg.Tasks = spec.Tasks
	w, err := gunfu.NewWorker(core, as, prog, cfg)
	if err != nil {
		return director.Result{}, err
	}
	if _, err := w.Run(src, spec.Warmup); err != nil {
		return director.Result{}, err
	}
	var total director.Result
	for remaining := spec.Packets; remaining > 0; {
		n := spec.StatsEvery
		if n > remaining {
			n = remaining
		}
		r, err := w.Run(src, n)
		if err != nil {
			return director.Result{}, err
		}
		total.Packets += r.Packets
		total.Bits += r.Bits
		total.Cycles += r.Cycles
		total.FreqHz = r.FreqHz
		total.Counters = total.Counters.Add(r.Counters)
		remaining -= n
	}
	return total, nil
}

// checkDeploys counts every deploy as one operation: it succeeds when
// every agent answered with the in-process reference result.
func checkDeploys(b *bench, runs []deployRun, want director.Result) {
	for i, r := range runs {
		ok := r.err == nil && len(r.results) == deployAgents
		for _, got := range r.results {
			got.Agent = ""
			ok = ok && got == want
		}
		b.op(ok, "deploy %d: err %v, %d results, want %d equal to the in-process run %+v; got %+v",
			i, r.err, len(r.results), deployAgents, want, r.results)
	}
}
