// Package anvil implements ANVIL, the paper's contribution: a software
// rowhammer detector built entirely on commodity performance-monitoring
// hardware, plus selective refresh of predicted victim rows.
//
// The detector runs as a kernel module on the simulated machine (§3.3):
//
//	Stage 1 — the LLC miss-count event (LONGEST_LAT_CACHE.MISS) is armed to
//	interrupt after LLCMissThreshold misses; if the interrupt beats the
//	tc window timer, the observed miss rate is compatible with rowhammering
//	and stage 2 is entered.
//
//	Stage 2 — for ts, the PEBS Load Latency and/or Precise Store facilities
//	sample memory operations (5000 samples/s, latency threshold set at the
//	LLC miss latency so only DRAM-bound loads qualify; the 90%/10% load
//	fraction rule selects which facilities run). Samples are resolved to
//	physical addresses via the sampled task_struct and decoded to DRAM
//	rows with the reverse-engineered address map. Rows with high sample
//	locality whose bank shows enough companion traffic are flagged as
//	aggressors.
//
//	Protection — for every flagged aggressor, the rows above and below are
//	refreshed with a single uncached read each, restoring their charge.
package anvil

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/pmu"
	"repro/internal/sim"
)

// Params are the detector parameters (Table 2 plus cost-model knobs).
type Params struct {
	// LLCMissThreshold is stage 1's miss count per tc window (Table 2: 20K).
	LLCMissThreshold uint64
	// MissCountDuration is tc.
	MissCountDuration time.Duration
	// SamplingDuration is ts.
	SamplingDuration time.Duration
	// SampleRate is the PEBS sampling rate in samples/second (5000).
	SampleRate uint64
	// LatencyThreshold qualifies loads for the latency sampler; set to the
	// last-level cache miss latency.
	LatencyThreshold sim.Cycles
	// LoadOnlyFrac / StoreOnlyFrac implement the 90%/10% facility rule.
	LoadOnlyFrac  float64
	StoreOnlyFrac float64

	// MinRowSamples is the floor on the per-row sample count that marks an
	// aggressor candidate.
	MinRowSamples int
	// LocalityFactor scales the adaptive component of the row threshold:
	// the expected per-aggressor sample count for a minimal viable attack.
	LocalityFactor float64
	// BankMinSamples is how many samples from *other* rows of the candidate
	// row's bank must exist (the bank-locality confirmation of §3.1 that
	// filters thrashing false positives).
	BankMinSamples int
	// BankHotFraction is the second detection tier: a row with somewhat
	// lower locality still counts as an aggressor when its bank absorbs at
	// least this fraction of all DRAM samples — the signature of an attack
	// necessarily concentrated in one bank, which survives sample dilution
	// by co-running programs.
	BankHotFraction float64
	// NeighborRows is how far around an aggressor victims are refreshed.
	NeighborRows int
	// MaxAggressorsPerBank caps how many flagged rows per bank are acted on
	// per detection (highest sample count first); 0 means unlimited. The
	// paper's measured refresh rates (~2 per detection) correspond to one
	// aggressor per detection; the eviction-set rows of the CLFLUSH-free
	// attack would otherwise all be flagged. Rows refreshed in the previous
	// detection are deprioritised, so multiple concurrent aggressor pairs
	// in one bank are covered round-robin well inside their flip horizon.
	MaxAggressorsPerBank int

	// Cost model: cycles stolen from the interrupted core.
	PMICost       sim.Cycles // per PEBS sample (interrupt + record handling)
	Stage1Cost    sim.Cycles // per stage-1 window (counter read / rearm)
	AnalysisCost  sim.Cycles // per stage-2 analysis (sort + decode)
	PerSampleCost sim.Cycles // per-sample analysis (task lookup, translate)
}

// Baseline returns the paper's Table 2 configuration.
func Baseline() Params {
	return Params{
		LLCMissThreshold:     20_000,
		MissCountDuration:    6 * time.Millisecond,
		SamplingDuration:     6 * time.Millisecond,
		SampleRate:           5000,
		LatencyThreshold:     100,
		LoadOnlyFrac:         0.9,
		StoreOnlyFrac:        0.1,
		MinRowSamples:        3,
		LocalityFactor:       0.2,
		BankMinSamples:       2,
		BankHotFraction:      0.5,
		MaxAggressorsPerBank: 1,
		NeighborRows:         1,
		PMICost:              12_000,
		Stage1Cost:           600,
		AnalysisCost:         80_000,
		PerSampleCost:        2400,
	}
}

// Light is the §4.5 ANVIL-light configuration: same windows, stage-1
// threshold halved to 10K, for attacks that spread fewer activations
// across a whole refresh period.
func Light() Params {
	p := Baseline()
	p.LLCMissThreshold = 10_000
	return p
}

// Heavy is the §4.5 ANVIL-heavy configuration: tc = ts = 2 ms for attacks
// on future DRAM that flips twice as fast. The stage-1 miss *rate*
// threshold is unchanged (20K per 6 ms), which over a 2 ms window is ~6.7K
// misses; windows fire three times as often, so — as the paper observes —
// the continuously-experienced sampling overheads grow the most in this
// configuration.
func Heavy() Params {
	p := Baseline()
	p.MissCountDuration = 2 * time.Millisecond
	p.SamplingDuration = 2 * time.Millisecond
	p.LLCMissThreshold = p.LLCMissThreshold / 3
	p.MinRowSamples = 4 // of ~10 samples per 2 ms window
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.LLCMissThreshold == 0:
		return fmt.Errorf("anvil: LLCMissThreshold must be positive")
	case p.MissCountDuration <= 0 || p.SamplingDuration <= 0:
		return fmt.Errorf("anvil: window durations must be positive")
	case p.SampleRate == 0:
		return fmt.Errorf("anvil: SampleRate must be positive")
	case p.MinRowSamples <= 0:
		return fmt.Errorf("anvil: MinRowSamples must be positive")
	case p.NeighborRows <= 0:
		return fmt.Errorf("anvil: NeighborRows must be positive")
	case p.LoadOnlyFrac <= p.StoreOnlyFrac:
		return fmt.Errorf("anvil: LoadOnlyFrac must exceed StoreOnlyFrac")
	}
	return nil
}

// Detection records one protective action.
type Detection struct {
	Time       sim.Cycles
	Aggressors []dram.Coord
	Victims    []dram.Coord
	Samples    int
}

// Stats aggregates the detector's activity.
type Stats struct {
	Stage1Windows   uint64
	Stage1Crossings uint64
	SampleWindows   uint64
	Detections      []Detection
	Refreshes       uint64
	SamplesTaken    uint64
	// WindowPeaks records, per sample window, the highest per-row DRAM
	// sample count and the row threshold in force — the raw material of
	// the locality decision (diagnostics, calibration, tests).
	WindowPeaks []WindowPeak
}

// WindowPeak summarises one sampling window's locality analysis.
type WindowPeak struct {
	Samples    int // DRAM-confirmed, resolvable samples
	MaxRow     int // highest single-row sample count
	Threshold  int // row threshold applied
	MaxBank    int // highest single-bank sample count
	Candidates int // rows passing the locality rules
}

// CrossingFraction is the fraction of stage-1 windows that breached the
// miss threshold (the quantity §4.3 reports per benchmark).
func (s Stats) CrossingFraction() float64 {
	if s.Stage1Windows == 0 {
		return 0
	}
	return float64(s.Stage1Crossings) / float64(s.Stage1Windows)
}

// Detector is the ANVIL kernel module attached to one machine.
type Detector struct {
	params Params
	m      *machine.Machine
	mapper dram.Mapper

	tc sim.Cycles
	ts sim.Cycles

	missStart     uint64 // EvLLCMiss at window start
	loadMissStart uint64
	crossed       bool
	lastFlagged   map[dram.Coord]sim.Cycles // when each aggressor was last acted on
	stats         Stats
	running       bool
}

// New creates a detector for the machine. mapper is the reverse-engineered
// physical-to-DRAM map the kernel module was pre-configured with; pass nil
// to use the DRAM module's own mapper (a perfectly reverse-engineered map).
func New(m *machine.Machine, params Params, mapper dram.Mapper) (*Detector, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("anvil: machine is required")
	}
	if mapper == nil {
		mapper = m.Mem.DRAM.Mapper()
	}
	return &Detector{
		params: params,
		m:      m,
		mapper: mapper,
		tc:     m.Freq.Cycles(params.MissCountDuration),
		ts:     m.Freq.Cycles(params.SamplingDuration),
	}, nil
}

// Stats returns a snapshot of the detector's counters.
func (d *Detector) Stats() Stats {
	s := d.stats
	s.Detections = append([]Detection(nil), d.stats.Detections...)
	return s
}

// Start attaches the detector to the machine's PMU and timer, beginning
// with a stage-1 window at the machine's current time.
func (d *Detector) Start() {
	if d.running {
		return
	}
	d.running = true
	d.m.Mem.PMU.OnSample(func(s pmu.Sample) {
		d.stats.SamplesTaken++
		d.m.ChargeCurrent(d.params.PMICost)
	})
	d.beginStage1(d.m.Time())
}

// beginStage1 opens a miss-rate measurement window at t0.
func (d *Detector) beginStage1(t0 sim.Cycles) {
	p := d.m.Mem.PMU
	d.missStart = p.Read(pmu.EvLLCMiss)
	d.loadMissStart = p.Read(pmu.EvLLCMissLoads)
	d.crossed = false
	// "The count is set such that if the miss interrupt arrives before the
	// sample window timer interrupt, we know that the miss threshold has
	// been breached."
	p.ArmOverflow(pmu.EvLLCMiss, d.params.LLCMissThreshold, func(now sim.Cycles) {
		d.crossed = true
	})
	d.m.Kernel.At(t0+d.tc, d.endStage1)
}

// endStage1 closes the window: either escalate to sampling or re-open.
func (d *Detector) endStage1(now sim.Cycles) {
	d.m.ChargeCurrent(d.params.Stage1Cost)
	d.stats.Stage1Windows++
	p := d.m.Mem.PMU
	p.DisarmOverflow(pmu.EvLLCMiss)
	if !d.crossed {
		d.beginStage1(now)
		return
	}
	d.stats.Stage1Crossings++
	d.beginStage2(now)
}

// beginStage2 arms the PEBS facilities per the 90%/10% rule.
func (d *Detector) beginStage2(t0 sim.Cycles) {
	d.stats.SampleWindows++
	p := d.m.Mem.PMU
	misses := p.Read(pmu.EvLLCMiss) - d.missStart
	loadMisses := p.Read(pmu.EvLLCMissLoads) - d.loadMissStart
	loadFrac := 1.0
	if misses > 0 {
		loadFrac = float64(loadMisses) / float64(misses)
	}
	sampleLoads := loadFrac >= d.params.StoreOnlyFrac
	sampleStores := loadFrac <= d.params.LoadOnlyFrac
	// Each armed facility runs at the full sampling rate; they are
	// independent counters on real hardware.
	interval := sim.Cycles(d.m.Freq.Hz() / d.params.SampleRate)
	p.Samples() // drain anything stale
	if sampleLoads {
		p.ConfigureLoadSampler(pmu.SamplerConfig{
			Enabled:          true,
			LatencyThreshold: d.params.LatencyThreshold,
			Interval:         interval,
		}, t0)
	}
	if sampleStores {
		p.ConfigureStoreSampler(pmu.SamplerConfig{
			Enabled:  true,
			Interval: interval,
		}, t0)
	}
	d.m.Kernel.At(t0+d.ts, d.endStage2)
}

// endStage2 analyses the samples and protects any victims found.
func (d *Detector) endStage2(now sim.Cycles) {
	p := d.m.Mem.PMU
	samples := p.Samples()
	p.ConfigureLoadSampler(pmu.SamplerConfig{}, now)
	p.ConfigureStoreSampler(pmu.SamplerConfig{}, now)
	d.m.ChargeCurrent(d.params.AnalysisCost + sim.Cycles(len(samples))*d.params.PerSampleCost)

	aggressors := d.analyse(samples, p.Read(pmu.EvLLCMiss)-d.missStart, now)
	if len(aggressors) > 0 {
		d.protect(aggressors, len(samples), now)
	}
	d.beginStage1(now)
}

// analyse implements the row- and bank-locality analysis of §3.3.
func (d *Detector) analyse(samples []pmu.Sample, windowMisses uint64, now sim.Cycles) []dram.Coord {
	type rowKey struct{ bank, row int }
	rowCount := make(map[rowKey]int)
	bankCount := make(map[int]int)
	for _, s := range samples {
		// The data source must confirm the operation actually reached DRAM
		// (both facilities report it; §3.3).
		if s.Source != cache.SrcDRAM {
			continue
		}
		space := d.m.Kernel.TaskSpace(s.Task)
		if space == nil {
			continue // task exited between sampling and analysis
		}
		pa, err := space.Translate(s.VA)
		if err != nil {
			continue
		}
		c := d.mapper.Map(pa)
		rowCount[rowKey{c.Bank, c.Row}]++
		bankCount[c.Bank]++
	}

	// Row-locality threshold: the floor, or the adaptive expectation of
	// samples per aggressor for a minimal viable attack (whichever is
	// larger). With n samples spread over M misses, a double-sided attack
	// needs at least LLCMissThreshold misses on two aggressors, i.e.
	// n * threshold / (2*M) samples each.
	n := len(samples)
	thr := d.params.MinRowSamples
	if windowMisses > 0 {
		expect := d.params.LocalityFactor * float64(n) *
			float64(d.params.LLCMissThreshold) / (2 * float64(windowMisses))
		if a := int(math.Ceil(expect)); a > thr {
			thr = a
		}
	}

	// Second tier: a somewhat-less-local row inside a very hot bank.
	thrLow := thr - 2
	if thrLow < 2 {
		thrLow = 2
	}
	dramSamples := 0
	for _, c := range bankCount {
		dramSamples += c
	}
	bankHot := int(math.Ceil(d.params.BankHotFraction * float64(dramSamples)))
	if bankHot < thrLow+d.params.BankMinSamples {
		bankHot = thrLow + d.params.BankMinSamples
	}

	type candidate struct {
		coord dram.Coord
		count int
	}
	var cands []candidate
	for k, c := range rowCount {
		// Bank-locality confirmation: rowhammering requires companion
		// activity in the same bank (the row buffer would otherwise absorb
		// the accesses). Thrashing patterns without it are dismissed.
		companions := bankCount[k.bank] - c
		switch {
		case c >= thr && companions >= d.params.BankMinSamples:
			// High row locality with confirmed bank activity.
		case c >= thrLow && bankCount[k.bank] >= bankHot && companions >= d.params.BankMinSamples:
			// Moderate row locality inside an attack-hot bank with real
			// companion traffic (a lone bank-dominant row cannot hammer:
			// the row buffer would absorb it).
		default:
			continue
		}
		cands = append(cands, candidate{dram.Coord{Bank: k.bank, Row: k.row}, c})
	}
	// Within each bank, act on least-recently-refreshed candidates first
	// (then highest sample count): persistent aggressor pairs — including
	// deliberate decoys sharing the bank — are covered round-robin, each
	// well inside its flip horizon.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.coord.Bank != b.coord.Bank {
			return a.coord.Bank < b.coord.Bank
		}
		at, bt := d.lastFlagged[a.coord], d.lastFlagged[b.coord]
		if at != bt {
			return at < bt
		}
		if a.count != b.count {
			return a.count > b.count
		}
		return a.coord.Row < b.coord.Row
	})
	peak := WindowPeak{Threshold: thr}
	for _, c := range bankCount {
		peak.Samples += c
		if c > peak.MaxBank {
			peak.MaxBank = c
		}
	}
	for _, c := range rowCount {
		if c > peak.MaxRow {
			peak.MaxRow = c
		}
	}
	peak.Candidates = len(cands)
	d.stats.WindowPeaks = append(d.stats.WindowPeaks, peak)

	var out []dram.Coord
	perBank := make(map[int]int)
	for _, c := range cands {
		if d.params.MaxAggressorsPerBank > 0 && perBank[c.coord.Bank] >= d.params.MaxAggressorsPerBank {
			continue
		}
		perBank[c.coord.Bank]++
		out = append(out, c.coord)
	}
	if d.lastFlagged == nil {
		d.lastFlagged = make(map[dram.Coord]sim.Cycles)
	}
	for _, c := range out {
		d.lastFlagged[c] = now
	}
	return out
}

// protect refreshes the neighbours of each aggressor with uncached reads.
func (d *Detector) protect(aggressors []dram.Coord, nSamples int, now sim.Cycles) {
	det := Detection{Time: now, Aggressors: aggressors, Samples: nSamples}
	rows := d.m.Mem.DRAM.Config().Geometry.RowsPerBank
	seen := map[dram.Coord]bool{}
	for _, a := range aggressors {
		for dr := 1; dr <= d.params.NeighborRows; dr++ {
			for _, vrow := range []int{a.Row - dr, a.Row + dr} {
				if vrow < 0 || vrow >= rows {
					continue
				}
				v := dram.Coord{Bank: a.Bank, Row: vrow}
				if seen[v] {
					continue
				}
				seen[v] = true
				pa := d.mapper.Unmap(v)
				lat := d.m.Mem.KernelRead(pa, now)
				d.m.ChargeCurrent(lat)
				d.stats.Refreshes++
				det.Victims = append(det.Victims, v)
			}
		}
	}
	d.stats.Detections = append(d.stats.Detections, det)
}
