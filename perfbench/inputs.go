package main

import (
	"fmt"

	"github.com/cmlasu/unsync/internal/progs"
	"github.com/cmlasu/unsync/internal/trace"
)

// rng is splitmix64: the only source of the benchmark's generated
// inputs, so one seed always yields the same inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// nonzero returns a value that is never 0: campaign.Spec maps seed 0
// to its default, which would make two benchmark seeds collide.
func (r *rng) nonzero() uint64 { return r.next() | 1 }

// variants is how many input variants a run cycles through: operation
// i runs variant i mod variants, so every run averages over several
// inputs drawn from its seed instead of resting on one draw.
const variants = 16

// variantSeeds draws the per-variant seeds of a workload.
func variantSeeds(r *rng) []uint64 {
	out := make([]uint64, variants)
	for i := range out {
		out[i] = r.nonzero()
	}
	return out
}

// fig5Point is one Reunion (FI, comparison latency) operating point.
type fig5Point struct {
	FI         int    `json:"fi"`
	CmpLatency uint64 `json:"cmp_latency"`
}

// figuresInputs is the reduced operating point of the figures
// workload. Variant v reseeds every profile's instruction stream with
// Variants[v] (trace.Profile.Reseeded).
type figuresInputs struct {
	WarmupInsts  uint64      `json:"warmup_insts"`
	MeasureInsts uint64      `json:"measure_insts"`
	Workers      int         `json:"workers"`
	Fig4         []string    `json:"fig4_and_ser"`
	Fig5         []string    `json:"fig5"`
	Fig5Points   []fig5Point `json:"fig5_points"`
	Fig6         []string    `json:"fig6"`
	Fig6Sizes    []int       `json:"fig6_cb_entries"`
	Variants     []uint64    `json:"variants"`
	// SERRates and SERSeed drive the injected runs of the per-layer
	// pass, which mirrors the SER sweep's validation points.
	SERRates []float64 `json:"ser_rates"`
	SERSeed  uint64    `json:"ser_seed"`
}

func genFigures(seed uint64) figuresInputs {
	r := rng{s: seed}
	return figuresInputs{
		WarmupInsts:  2_000,
		MeasureInsts: 10_000,
		Workers:      2,
		Fig4:         []string{"bzip2", "gzip"},
		Fig5:         []string{"ammp", "galgel"},
		Fig5Points:   []fig5Point{{FI: 1, CmpLatency: 10}, {FI: 30, CmpLatency: 40}},
		Fig6:         []string{"qsort", "susan"},
		Fig6Sizes:    []int{5, 170},
		Variants:     variantSeeds(&r),
		SERRates:     []float64{1e-4, 1e-3},
		SERSeed:      r.nonzero(),
	}
}

// profiles resolves profile names reseeded with one variant's key.
func profiles(names []string, key uint64) ([]trace.Profile, error) {
	out := make([]trace.Profile, 0, len(names))
	for _, name := range names {
		p, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown trace profile %q", name)
		}
		out = append(out, p.Reseeded(key))
	}
	return out, nil
}

// campaignInputs sizes one round of the campaign workload: a fresh
// UnSync campaign, a fresh Reunion campaign and a resume of the UnSync
// journal. Round i uses campaign seed Seeds[i mod variants].
type campaignInputs struct {
	Prog          string   `json:"prog"`
	Seeds         []uint64 `json:"seeds"`
	UnSyncTrials  int      `json:"unsync_trials"`
	ReunionTrials int      `json:"reunion_trials"`
	Workers       int      `json:"workers"`
}

func genCampaign(seed uint64) campaignInputs {
	r := rng{s: seed}
	return campaignInputs{
		Prog:          "checksum",
		Seeds:         variantSeeds(&r),
		UnSyncTrials:  4096,
		ReunionTrials: 128,
		Workers:       2,
	}
}

// serviceInputs defines the job stream of the service workload. Jobs
// are numbered from 0; each block of len(serviceTrials) consecutive
// jobs runs a seeded permutation of those programs, so every program
// is drawn equally often, and every job has its own campaign seed.
type serviceInputs struct {
	Clients int            `json:"clients"`
	Scheme  string         `json:"scheme"`
	Workers int            `json:"workers_per_job"`
	Trials  map[string]int `json:"trials_per_job"`
	Seed    uint64         `json:"seed"`
	// FirstBlock is the program order of the first block of jobs.
	FirstBlock []string `json:"first_block"`
}

// serviceScheme and serviceTrials define the service's jobs: Reunion
// campaigns sized so every job does comparable work, about 30 ms with
// one worker on a 2-core Xeon, except gcd, whose short jobs keep the
// pure per-job fixed costs in the mix. Jobs longer than the server's
// 20 ms wait-for-plane poll of the SSE endpoint do not race it; with
// equal trial counts job latency is multimodal (cheap programs either
// win the race or wait a whole poll) and its median jumps between modes
// from run to run. Reunion, not UnSync: ~50 records per job instead of
// thousands, because the server keeps every finished job's plane, and
// with it every record, in memory. fib-recursive is left out: some of
// its trials run to the 4M-step watchdog, so one job can take seconds
// and hundreds of MB depending on the seed alone.
const serviceScheme = "reunion"

var serviceTrials = map[string]int{
	"bubblesort": 44,
	"matmul":     60,
	"sieve":      38,
	"gcd":        256,
	"checksum":   96,
}

// serviceProgs returns the programs of serviceTrials in library order.
func serviceProgs() []string {
	var out []string
	for _, p := range progs.All() {
		if _, ok := serviceTrials[p.Name]; ok {
			out = append(out, p.Name)
		}
	}
	return out
}

func genService(seed uint64) serviceInputs {
	r := rng{s: seed}
	in := serviceInputs{Clients: 2, Scheme: serviceScheme, Workers: 1, Trials: serviceTrials, Seed: r.nonzero()}
	for k := range serviceProgs() {
		prog, _ := in.job(k)
		in.FirstBlock = append(in.FirstBlock, prog)
	}
	return in
}

// job returns the program and campaign seed of job k.
func (in serviceInputs) job(k int) (prog string, seed uint64) {
	lib := serviceProgs()
	block := rng{s: in.Seed ^ uint64(k/len(lib))*0xd1b54a32d192ed03}
	perm := append([]string(nil), lib...)
	for i := len(perm) - 1; i > 0; i-- {
		j := block.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	own := rng{s: in.Seed ^ uint64(k)*0x9e3779b97f4a7c15}
	return perm[k%len(lib)], own.nonzero()
}

// fleetInputs sizes one distributed campaign of the fleet workload.
// Operation i uses campaign seed Seeds[i mod variants].
type fleetInputs struct {
	Prog          string   `json:"prog"`
	Seeds         []uint64 `json:"seeds"`
	Trials        int      `json:"trials"`
	Nodes         int      `json:"nodes"`
	WorkersOnNode int      `json:"workers_per_node"`
}

// genFleet sizes each distributed campaign at 8192 trials (~0.2 s on
// two vCPUs): at 4096 the scheduling jitter of coordinator and workers
// sharing the cores was a larger share of each operation, and the
// latency tail moved by up to a quarter between runs of the same code.
func genFleet(seed uint64) fleetInputs {
	r := rng{s: seed}
	return fleetInputs{Prog: "checksum", Seeds: variantSeeds(&r), Trials: 8192, Nodes: 2, WorkersOnNode: 1}
}
