package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"github.com/soft-testing/soft"
	"github.com/soft-testing/soft/internal/store"
)

// workload is one named input set: set-up builds its inputs (repeated for
// setup_s), pass runs one timed pass and returns the checks of its output,
// which run untimed, and layerOnly adds the per-layer figures a traced run
// needs beyond the passes themselves.
type workload struct {
	setup     func(b *bench) error
	pass      func(b *bench, p *pass, i int) (verify func() error, err error)
	layerOnly func(b *bench, out map[string]float64) error
}

var workloads = map[string]workload{
	"flowmod-explore":      {setup: setupPacketOut, pass: flowmodPass, layerOnly: flowmodModels},
	"packetout-crosscheck": {setup: setupPacketOut, pass: crosscheckPass, layerOnly: packetOutModels},
	"scenario-campaign":    {setup: setupPacketOut, pass: campaignPass},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// golden pins the outputs every run is checked against: results digests
// (store.ResultHash) per cell and the Packet Out inconsistency counts. The
// digests come from the code this benchmark was defined on; "same bytes out"
// is the contract every later change keeps.
type golden struct {
	digests map[string]string // "agent display name/test[@cut]" -> ResultHash
	incs    map[string]int    // "a-vs-b" -> inconsistencies on Packet Out
}

var goldenFull = golden{
	digests: map[string]string{
		"Reference Switch/FlowMod":    "85f1f1f900bfee98e55ea01bf76b8ef49e33e009c8c4bee555e811ea86bf6f02",
		"Modified Switch/FlowMod":     "2310adaf5e0ee971e3e03bef98b9dba5bd2035d2ce5d548457c4ed19cc012206",
		"Reference Switch/FlowMod@20": "79ea3f98792486c8e7c50a200a5a201ff5f5e4722b8a3961766372a2662f4dc6",
		"Modified Switch/FlowMod@20":  "30a89af0aedb45fd5c18facf126637bd747db4e8ddf687940618d008f7b35919",
		"Reference Switch/Packet Out": "e1f5b9ab3418f0f3161f084a458fdd2591ac45a4f794ac00078d100ee0e00539",
		"Open vSwitch/Packet Out":     "735917f8a468b803ad708183352a737e1dfaacca75e205793cdd588640728893",
		"Modified Switch/Packet Out":  "6841ba59c4fbde497f4546365eac9560739cd493130b8a6cfe34304260da0829",
	},
	incs: map[string]int{"ref-vs-ovs": 146, "ref-vs-modified": 33},
}

// tinyFlowModPaths is the canonical FlowMod cut of the self-test's tiny
// flowmod-explore; the full workload explores FlowMod exhaustively.
const tinyFlowModPaths = 20

var packetOutAgents = []string{"ref", "ovs", "modified"}

// exploreOpts is the shipped phase-1 configuration at one worker.
func exploreOpts(models bool) []soft.Option {
	return []soft.Option{soft.WithModels(models), soft.WithWorkers(1)}
}

// setupPacketOut explores Packet Out for the three agents and keeps the
// results files: packetout-crosscheck's inputs, and a warm-up of the
// engine, codec and heap for the other workloads.
func setupPacketOut(b *bench) error {
	t, _ := soft.TestByName("Packet Out")
	b.packetOut = map[string][]byte{}
	for _, name := range packetOutAgents {
		a, err := soft.AgentByName(name)
		if err != nil {
			return err
		}
		r, err := soft.Explore(b.ctx, a, t, exploreOpts(true)...)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := soft.WriteResults(&buf, r); err != nil {
			return err
		}
		b.packetOut[name] = buf.Bytes()
	}
	return nil
}

// checkDigest checks a cell's results digest against the golden one.
func (b *bench) checkDigest(sr *soft.SerializedResult) {
	key := sr.Agent + "/" + sr.Test
	if b.cfg.tiny && sr.Test == "FlowMod" {
		key += fmt.Sprintf("@%d", tinyFlowModPaths)
	}
	got, err := store.ResultHash(sr)
	want := b.cfg.want.digests[key]
	b.check(err == nil && got == want, "digest of %s: got %s, want %s (err %v)", key, got, want, err)
}

// flowmodPass is phase 1 plus the vendor hand-off: explore FlowMod for ref
// and modified (seed-chosen order), write each result, read it back, group
// it. cold_s is the producing side (explore+encode), warm_s the consuming
// side (decode+group).
func flowmodPass(b *bench, p *pass, _ int) (func() error, error) {
	t, _ := soft.TestByName("FlowMod")
	order := []string{"ref", "modified"}
	if b.cfg.seed%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	opts := exploreOpts(true)
	if b.cfg.tiny {
		opts = append(opts, soft.WithMaxPaths(tinyFlowModPaths), soft.WithCanonicalCut(true))
	}
	var read []*soft.SerializedResult
	var explored []int
	for _, name := range order {
		a, err := soft.AgentByName(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := soft.Explore(b.ctx, a, t, opts...)
		if err != nil {
			return nil, err
		}
		t1, a1 := time.Now(), heapAlloc()
		var buf bytes.Buffer
		if err := soft.WriteResults(&buf, r); err != nil {
			return nil, err
		}
		t2, a2 := time.Now(), heapAlloc()
		sr, err := soft.ReadResults(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		t3, a3 := time.Now(), heapAlloc()
		g := soft.GroupSerialized(sr)
		t4 := time.Now()

		p.layer["symexec.paths"] += float64(len(r.Paths))
		p.layer["symexec.branch_queries"] += float64(r.BranchQueries)
		p.layer["harness.encode_s"] += t2.Sub(t1).Seconds()
		p.layer["harness.encode_alloc_mb"] += float64(a2-a1) / (1 << 20)
		p.layer["harness.decode_s"] += t3.Sub(t2).Seconds()
		p.layer["harness.decode_alloc_mb"] += float64(a3-a2) / (1 << 20)
		p.layer["group.group_s"] += t4.Sub(t3).Seconds()
		p.layer["group.groups"] += float64(len(g.Groups))
		p.cold += t2.Sub(t0).Seconds()
		p.warm += t4.Sub(t2).Seconds()
		p.paths += len(r.Paths)
		p.bytes += buf.Len()
		read, explored = append(read, sr), append(explored, len(r.Paths))
	}
	return func() error {
		for k, sr := range read {
			b.check(len(sr.Paths) == explored[k], "%s: %d paths read back, %d explored", sr.Agent, len(sr.Paths), explored[k])
			b.checkDigest(sr)
		}
		return nil
	}, nil
}

// crosscheckPass is phase 2 on Packet Out: parse and group the three
// results, crosscheck ref-vs-ovs and ref-vs-modified (seed-chosen order) on
// a fresh solver (cold_s), then repeat on the same solver, whose query
// cache now answers every query (warm_s).
func crosscheckPass(b *bench, p *pass, _ int) (func() error, error) {
	pairs := [][2]string{{"ref", "ovs"}, {"ref", "modified"}}
	if b.cfg.seed%2 == 1 {
		pairs[0], pairs[1] = pairs[1], pairs[0]
	}
	s := soft.NewSolver()
	var read []*soft.SerializedResult
	for round := 0; round < 2; round++ {
		t0 := time.Now()
		groups := map[string]*soft.Grouped{}
		for _, name := range packetOutAgents {
			data := b.packetOut[name]
			t1, a1 := time.Now(), heapAlloc()
			sr, err := soft.ReadResults(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			t2, a2 := time.Now(), heapAlloc()
			groups[name] = soft.GroupSerialized(sr)
			t3 := time.Now()
			p.layer["harness.decode_s"] += t2.Sub(t1).Seconds()
			p.layer["harness.decode_alloc_mb"] += float64(a2-a1) / (1 << 20)
			p.layer["group.group_s"] += t3.Sub(t2).Seconds()
			p.layer["group.groups"] += float64(len(groups[name].Groups))
			p.paths += len(sr.Paths)
			p.bytes += len(data)
			if round == 0 {
				read = append(read, sr)
			}
		}
		for _, pr := range pairs {
			t1, a1 := time.Now(), heapAlloc()
			rep, err := soft.CrossCheck(b.ctx, groups[pr[0]], groups[pr[1]], soft.WithWorkers(1), soft.WithSolver(s))
			if err != nil {
				return nil, err
			}
			p.layer["crosscheck.check_s"] += time.Since(t1).Seconds()
			p.layer["crosscheck.alloc_mb"] += float64(heapAlloc()-a1) / (1 << 20)
			p.layer["crosscheck.incs"] += float64(len(rep.Inconsistencies))
			p.layer["crosscheck.queries"] += float64(rep.Queries)
			key := pr[0] + "-vs-" + pr[1]
			want := b.cfg.want.incs[key]
			b.check(len(rep.Inconsistencies) == want && !rep.Partial,
				"Packet Out %s: %d inconsistencies (partial %t), want %d", key, len(rep.Inconsistencies), rep.Partial, want)
		}
		if round == 0 {
			p.cold = time.Since(t0).Seconds()
		} else {
			p.warm = time.Since(t0).Seconds()
		}
	}
	return func() error {
		for _, sr := range read {
			b.checkDigest(sr)
		}
		return nil
	}, nil
}

// warmRepeats is how many warm campaign passes one timed pass runs.
const warmRepeats = 2

// campaignScenarios is how many generated scenarios the campaign draws.
func campaignScenarios(tiny bool) int {
	if tiny {
		return 6
	}
	return 240
}

// scenarioDraw picks the campaign's generated scenarios and their order
// from the seed.
func scenarioDraw(seed int64, n int) []string {
	idx := rand.New(rand.NewSource(seed)).Perm(soft.GeneratedScenarioCount())[:n]
	names := make([]string, n)
	for i, k := range idx {
		names[i] = fmt.Sprintf("gen:%d", k)
	}
	return names
}

// campaignPass runs ref,ovs,modified × the seed's scenarios with crosscheck
// on: cold into a fresh store, served by a one-connection fleet whose
// worker is a child process, then warm from the filled store in-process.
func campaignPass(b *bench, p *pass, _ int) (func() error, error) {
	agents := []string{"ref", "ovs", "modified"}
	tests := scenarioDraw(b.cfg.seed, campaignScenarios(b.cfg.tiny))
	opts := []soft.Option{
		soft.WithWorkers(1), soft.WithModels(true), soft.WithStore(b.storeDir()),
		soft.WithCodeVersion("softbench"),
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	worker, err := startWorker(ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	t0, a0 := time.Now(), heapAlloc()
	cold, err := soft.RunMatrix(b.ctx, agents, tests, append(opts, soft.WithFleetListener(ln))...)
	t1, a1 := time.Now(), heapAlloc()
	workerAlloc, werr := worker.wait()
	if err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	if werr != nil {
		return nil, werr
	}
	p.allocMB += float64(workerAlloc) / (1 << 20)
	p.cold = t1.Sub(t0).Seconds()
	// The warm pass runs twice from a collected heap and warm_s is their
	// mean: a single one-second pass was the noisiest figure of the run.
	var warm *soft.MatrixReport
	var warmAlloc uint64
	for k := 0; k < warmRepeats; k++ {
		runtime.GC()
		t2, a2 := time.Now(), heapAlloc()
		warm, err = soft.RunMatrix(b.ctx, agents, tests, opts...)
		if err != nil {
			return nil, fmt.Errorf("warm campaign: %w", err)
		}
		p.warm += time.Since(t2).Seconds() / warmRepeats
		warmAlloc += heapAlloc() - a2
	}

	for _, c := range cold.Cells {
		p.paths += c.Paths
		p.layer["symexec.paths"] += float64(c.Paths)
		p.layer["symexec.branch_queries"] += float64(c.BranchQueries)
	}
	for _, c := range cold.Checks {
		p.layer["crosscheck.incs"] += float64(len(c.Report.Inconsistencies))
		p.layer["crosscheck.queries"] += float64(c.Report.Queries)
	}
	p.layer["sched.cells"] = float64(len(cold.Cells))
	p.layer["sched.cache_hits"] = float64(warm.CacheHits)
	p.layer["sched.cold_alloc_mb"] = float64(a1-a0)/(1<<20) + float64(workerAlloc)/(1<<20)
	p.layer["sched.warm_alloc_mb"] = float64(warmAlloc) / warmRepeats / (1 << 20)

	return func() error {
		var cb, wb bytes.Buffer
		if err := cold.Write(&cb); err != nil {
			return err
		}
		if err := warm.Write(&wb); err != nil {
			return err
		}
		b.check(bytes.Equal(cb.Bytes(), wb.Bytes()), "campaign: cold and warm reports differ")
		b.check(warm.CacheHits == len(warm.Cells), "campaign: warm pass hit the store for %d of %d cells", warm.CacheHits, len(warm.Cells))
		b.check(cold.FleetStats != nil && cold.FleetStats.Requeues == 0, "campaign: fleet requeued shards: %+v", cold.FleetStats)
		partial := 0
		for _, c := range cold.Checks {
			if c.Report.Partial {
				partial++
			}
		}
		b.check(partial == 0 && len(cold.Cells) == len(agents)*len(tests), "campaign: %d cells, %d partial checks", len(cold.Cells), partial)
		for _, c := range cold.Cells {
			var cw countWriter
			if c.Result != nil {
				if err := c.Result.Write(&cw); err != nil {
					return err
				}
			}
			p.bytes += cw.n
		}
		return nil
	}, nil
}

type countWriter struct{ n int }

func (w *countWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// exploreSeconds explores each (agent, test) cell once at one worker and
// returns the total explore time.
func exploreSeconds(b *bench, test string, agents []string, models bool, extra ...soft.Option) (float64, error) {
	t, _ := soft.TestByName(test)
	var total float64
	for _, name := range agents {
		a, err := soft.AgentByName(name)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := soft.Explore(b.ctx, a, t, append(exploreOpts(models), extra...)...); err != nil {
			return 0, err
		}
		total += time.Since(t0).Seconds()
	}
	return total, nil
}

// flowmodModels measures what canonical-model extraction costs on the
// flowmod-explore cells: explore time with models on minus models off.
func flowmodModels(b *bench, out map[string]float64) error {
	var extra []soft.Option
	if b.cfg.tiny {
		extra = []soft.Option{soft.WithMaxPaths(tinyFlowModPaths), soft.WithCanonicalCut(true)}
	}
	on, err := exploreSeconds(b, "FlowMod", []string{"ref", "modified"}, true, extra...)
	if err != nil {
		return err
	}
	off, err := exploreSeconds(b, "FlowMod", []string{"ref", "modified"}, false, extra...)
	out["bitblast.canonical_model_s"] = on - off
	return err
}

// packetOutModels is flowmodModels for the Packet Out cells set-up explores.
func packetOutModels(b *bench, out map[string]float64) error {
	on, err := exploreSeconds(b, "Packet Out", packetOutAgents, true)
	if err != nil {
		return err
	}
	off, err := exploreSeconds(b, "Packet Out", packetOutAgents, false)
	out["bitblast.canonical_model_s"] = on - off
	return err
}
