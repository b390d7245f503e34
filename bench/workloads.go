package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"baywatch/internal/corpus"
	"baywatch/internal/langmodel"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/source"
	"baywatch/internal/synthetic"
	"baywatch/internal/whitelist"
)

type kind int

const (
	kindScan kind = iota
	kindDetect
	kindFirehose
	kindSteady
	kindRecover
)

// workload fixes one input shape. Sizes are for -scale 1 on a two-core
// machine and are chosen so a unit of work (a job, a drain, a restart)
// takes a fraction of the ten-second run and the run holds several.
type workload struct {
	name string
	kind kind
	// hosts and days size the synthetic enterprise; every trace starts on
	// a Monday, so short traces are all weekdays.
	hosts, days int
	// niche and infections add unpopular periodic destinations, benign
	// and planted: what reaches and survives detection.
	niche, infections int
	// whitelisted is how many leading catalog entries the global
	// whitelist holds; 0 is the whole catalog.
	whitelisted int
	// tick is the daemon's TickInterval (serve workloads).
	tick time.Duration
	// rate is the open-loop append rate in lines per second.
	rate float64
}

var workloads = []workload{
	{name: "batch-scan", kind: kindScan, hosts: 1500, days: 2, infections: 1},
	{name: "batch-detect", kind: kindDetect, hosts: 80, days: 1, niche: 30, infections: 30, whitelisted: 200},
	{name: "serve-firehose", kind: kindFirehose, hosts: 1300, days: 1, infections: 1, tick: time.Second},
	{name: "serve-steady", kind: kindSteady, hosts: 1200, days: 2, infections: 8, tick: 200 * time.Millisecond, rate: 3000},
	{name: "serve-recover", kind: kindRecover, hosts: 1200, days: 1, infections: 8, tick: 200 * time.Millisecond},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// updatePeriods are the beacon periods of the twelve update services
// (the generator's own choices, each taken twice).
var updatePeriods = []float64{900, 1800, 3600, 7200, 14400, 86400}

// genConfig is the trace generator's configuration, and the destinations
// it pins. synthetic.Generate draws its update services' periods and its
// niche sites' periods and audiences from the seed, which moves a trace's
// line count by a factor of two from one seed to the next; a workload
// whose size did that could not be compared across seeds. So both are
// switched off and written out as campaigns on the same catalog
// destinations with fixed periods — half the hosts polling each of twelve
// whitelisted update services, one to three hosts on each niche site at
// the catalog's unpopular end — and the seed is left the sampling:
// which host, which second, which page. The planted infections follow
// bwgen's period and noise table.
func (w workload) genConfig(seed int64, scale float64) (cfg synthetic.Config, pinned map[string]bool) {
	cfg = synthetic.DefaultConfig()
	cfg.Seed = seed
	cfg.Start = synthetic.Midnight(2015, time.March, 2) // a Monday
	cfg.Days = w.days
	cfg.Hosts = scaled(w.hosts, scale, 20)
	catalog := corpus.PopularDomains(cfg.CatalogSize, seed+1) // as Generate derives it
	pinned = make(map[string]bool)
	campaign := func(family, domain string, clients int, period, jitter, miss float64) {
		pinned[domain] = true
		cfg.Infections = append(cfg.Infections, synthetic.Infection{
			Family: family, Domain: domain, Clients: clients, Period: period,
			Noise: synthetic.NoiseConfig{JitterSigma: period * jitter, MissProb: miss},
		})
	}
	for i := 0; i < cfg.UpdateServices; i++ {
		campaign("update", catalog[10+i], cfg.Hosts/2, updatePeriods[i%len(updatePeriods)], 0.01, 0.02)
	}
	for i := 0; i < scaled(w.niche, scale, min(w.niche, 2)); i++ {
		campaign("niche", catalog[len(catalog)-1-i], 1+i%3, float64(300*(1+i%10)), 0.02, 0.1)
	}
	cfg.UpdateServices, cfg.NicheServices = 0, 0
	periods := []float64{30, 63, 165, 180, 387, 600, 901, 1242}
	for i := 0; i < scaled(w.infections, scale, min(w.infections, 2)); i++ {
		cfg.Infections = append(cfg.Infections, synthetic.Infection{
			Family:  fmt.Sprintf("Campaign%d", i+1),
			DGA:     corpus.DGAStyle(i%3 + 1),
			Clients: 1 + i%4,
			Period:  periods[i%len(periods)],
			Noise:   synthetic.NoiseConfig{JitterSigma: 3, MissProb: 0.05, AddProb: 0.05},
		})
	}
	return cfg, pinned
}

// feedName is the connector name every serve workload uses.
const feedName = "feed"

// fileEntry is one generated input file as set-up left it.
type fileEntry struct {
	Name   string `json:"name"`
	Lines  int    `json:"lines"`
	SHA256 string `json:"sha256"`
}

// manifest describes one set-up directory: what the run process needs to
// know about its inputs, and the means to check they are the files
// set-up wrote.
type manifest struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Scale    float64     `json:"scale"`
	Files    []fileEntry `json:"files"`
	// Logs are the batch inputs, in order; Feed is the file the daemon
	// follows; Append holds the lines the open-loop appender writes.
	Logs   []string `json:"logs,omitempty"`
	Feed   string   `json:"feed,omitempty"`
	Append string   `json:"append,omitempty"`
	// Records counts the lines of Logs or Feed; Preloaded the events in
	// the state directory's checkpoint.
	Records   int `json:"records"`
	Preloaded int `json:"preloaded,omitempty"`
	// Whitelist is the global whitelist's domain list; Planted the C&C
	// destinations the generator injected; HostIP one client address.
	Whitelist []string `json:"whitelist"`
	Planted   []string `json:"planted,omitempty"`
	HostIP    string   `json:"host_ip"`
}

func (m *manifest) lines(name string) int {
	for _, f := range m.Files {
		if f.Name == name {
			return f.Lines
		}
	}
	return 0
}

// writeLog writes records as proxy log lines and returns the manifest
// entry.
func writeLog(dir, name string, records []*proxylog.Record) (fileEntry, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fileEntry{}, err
	}
	defer f.Close()
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	for _, r := range records {
		bw.WriteString(r.Format())
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fileEntry{}, fmt.Errorf("write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fileEntry{}, fmt.Errorf("close %s: %w", name, err)
	}
	return fileEntry{Name: name, Lines: len(records), SHA256: hex.EncodeToString(h.Sum(nil))}, nil
}

// setupResult is one completed set-up: the directory the run process
// reads, and the records the parent keeps for the reference computation.
type setupResult struct {
	dir       string
	man       *manifest
	reference []*proxylog.Record
}

// setUp generates the workload's trace from seed and writes every input
// the run process will read into dir: log files, for the restartable
// daemons a state directory preloaded through the real follower, and the
// manifest.
func setUp(w workload, seed int64, scale float64, dir string) (*setupResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	gen, pinned := w.genConfig(seed, scale)
	tr, err := synthetic.Generate(gen)
	if err != nil {
		return nil, err
	}
	man := &manifest{Workload: w.name, Seed: seed, Scale: scale, HostIP: tr.Records[0].ClientIP}
	man.Whitelist = tr.Catalog
	if w.whitelisted > 0 && w.whitelisted < len(tr.Catalog) {
		man.Whitelist = tr.Catalog[:w.whitelisted]
	}
	for d, t := range tr.Truth {
		if t.Label == synthetic.LabelMalicious && !pinned[d] {
			man.Planted = append(man.Planted, d)
		}
	}
	sort.Strings(man.Planted)
	add := func(name string, recs []*proxylog.Record) error {
		e, err := writeLog(dir, name, recs)
		man.Files = append(man.Files, e)
		return err
	}
	res := &setupResult{dir: dir, man: man}

	switch w.kind {
	case kindScan, kindDetect:
		// One plain file per day, so the sharded path really splits by
		// byte range (a .gz scans as one shard).
		lo := 0
		for day := 0; day < gen.Days; day++ {
			end := gen.Start + int64(day+1)*86400
			hi := lo
			for hi < len(tr.Records) && tr.Records[hi].Timestamp < end {
				hi++
			}
			name := fmt.Sprintf("proxy-day%d.log", day+1)
			if err := add(name, tr.Records[lo:hi]); err != nil {
				return nil, err
			}
			man.Logs = append(man.Logs, name)
			lo = hi
		}
		man.Records = len(tr.Records)
	case kindFirehose:
		man.Feed, man.Records = "feed.log", len(tr.Records)
		if err := add(man.Feed, tr.Records); err != nil {
			return nil, err
		}
		res.reference = tr.Records
	case kindSteady, kindRecover:
		// Day 1 is the daemon's history. The open loop replays day 2 from
		// 09:00, when browsing is under way and appended lines open new
		// pairs as well as extending old ones.
		day1 := 0
		for day1 < len(tr.Records) && tr.Records[day1].Timestamp < gen.Start+86400 {
			day1++
		}
		man.Feed, man.Records = "feed.log", day1
		if err := add(man.Feed, tr.Records[:day1]); err != nil {
			return nil, err
		}
		res.reference = tr.Records[:day1]
		if w.kind == kindSteady {
			from := day1
			for from < len(tr.Records) && tr.Records[from].Timestamp < gen.Start+86400+9*3600 {
				from++
			}
			man.Append = "append.log"
			if err := add(man.Append, tr.Records[from:]); err != nil {
				return nil, err
			}
		}
		if err := preload(dir, man); err != nil {
			return nil, err
		}
	}
	data, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// preload builds dir/state: the feed file drained through a real
// FileFollower into an engine, then one Commit. The committed position
// carries the feed's inode and offset, so the run's follower resumes at
// the end of the file as a restarted daemon would.
func preload(dir string, man *manifest) error {
	eng, err := source.OpenEngine(source.Config{StateDir: filepath.Join(dir, "state"), Scale: 1, Pipeline: pipelineConfig(man)})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := &driver{eng: eng}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The follower only returns once cancelled, with the cause.
		_ = (&source.FileFollower{Path: filepath.Join(dir, man.Feed), SourceName: feedName}).Run(ctx, source.Position{}, d)
	}()
	for eng.Position(feedName).Records < int64(man.Records) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	man.Preloaded = man.Records
	return eng.Commit()
}

// loadManifest reads a set-up directory's manifest and checks every
// listed file against its recorded line count and SHA-256, so a run
// never measures inputs other than the ones set-up wrote.
func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	man := &manifest{}
	if err := json.Unmarshal(data, man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	for _, f := range man.Files {
		body, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(body)
		lines := 0
		for _, b := range body {
			if b == '\n' {
				lines++
			}
		}
		if hex.EncodeToString(sum[:]) != f.SHA256 || lines != f.Lines {
			return nil, fmt.Errorf("manifest: %s does not match what set-up wrote", f.Name)
		}
	}
	return man, nil
}

// pipelineConfig is the detection configuration cmd/baywatch builds
// (default scale, tau and percentile; the 20000-domain language model),
// with the global whitelist taken from the trace's own catalog.
func pipelineConfig(man *manifest) pipeline.Config {
	lm, err := langmodel.Train(corpus.PopularDomains(20000, 42))
	if err != nil {
		panic(err) // the built-in corpus always trains
	}
	return pipeline.Config{
		Scale:          1,
		Global:         whitelist.NewGlobal(man.Whitelist),
		LocalTau:       0.01,
		LM:             lm,
		RankPercentile: 90,
	}
}
