package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"realroots/internal/core"
	"realroots/internal/metrics"
	"realroots/internal/mp"
)

// GridSchema identifies the JSON layout emitted by WriteGridJSON;
// ValidateGridJSON rejects anything else, so perf-trajectory snapshots
// (results/BENCH_*.json) fail loudly on schema drift.
const GridSchema = "realroots/bench-grid/v1"

// GridCell is one (degree, µ, procs) measurement of the sweep: the
// first seed's wall time, bit-operation count, and per-phase metrics.
type GridCell struct {
	Degree int   `json:"degree"`
	Mu     uint  `json:"mu"`
	Procs  int   `json:"procs"`
	Seed   int64 `json:"seed"`
	// Profile is the arithmetic profile name; empty means schoolbook
	// (pre-profile snapshots carry no field).
	Profile     string         `json:"profile,omitempty"`
	WallSeconds float64        `json:"wallSeconds"`
	BitOps      int64          `json:"bitOps"`
	Tasks       int64          `json:"tasks,omitempty"`
	Metrics     metrics.Report `json:"metrics"`
	// Loadtest cells additionally carry client-observed latency
	// percentiles and throughput; WallSeconds doubles as p50 there so the
	// -compare gate works unchanged on loadtest reports.
	P50Seconds    float64 `json:"p50Seconds,omitempty"`
	P99Seconds    float64 `json:"p99Seconds,omitempty"`
	ThroughputRPS float64 `json:"throughputRPS,omitempty"`
}

// GridReport is the machine-readable counterpart of the Times/Table2
// text experiments: the full degrees × µ × procs grid with metrics.
type GridReport struct {
	Schema   string     `json:"schema"`
	Simulate bool       `json:"simulate"`
	Cells    []GridCell `json:"cells"`
}

// RunGrid measures every cell of the configured grid. Cells are emitted
// in profile-outer, degrees, µ, procs-inner order; only the first seed
// is measured (metrics are identical across seeds of the same shape,
// and snapshots favor a stable, smaller file). With an empty
// cfg.GridProfiles the single cfg.Profile is measured, and schoolbook
// cells omit the profile tag, so pre-profile snapshots and default runs
// keep their exact byte layout.
func RunGrid(cfg Config) (*GridReport, error) {
	rep := &GridReport{Schema: GridSchema, Simulate: cfg.Simulate}
	profiles := cfg.GridProfiles
	if len(profiles) == 0 {
		profiles = []mp.Profile{cfg.Profile}
	}
	seed := cfg.Seeds[0]
	for _, prof := range profiles {
		name := ""
		if prof != mp.Schoolbook {
			name = prof.String()
		}
		for _, n := range cfg.Degrees {
			for _, mu := range cfg.Mus {
				for _, procs := range cfg.Procs {
					if err := cfg.interrupted(); err != nil {
						return nil, err
					}
					p := Instance(seed, n)
					var c metrics.Counters
					opts := core.Options{Mu: mu, Counters: &c, Ctx: cfg.Ctx, Profile: prof, Telemetry: cfg.Telemetry}
					if cfg.Simulate {
						opts.SimulateWorkers = procs
					} else {
						opts.Workers = procs
					}
					start := time.Now()
					res, err := core.FindRoots(p, opts)
					wall := time.Since(start)
					if err != nil {
						if err := cfg.interrupted(); err != nil {
							return nil, err
						}
						return nil, fmt.Errorf("grid n=%d µ=%d P=%d profile=%v: %w", n, mu, procs, prof, err)
					}
					if cfg.Simulate {
						wall = res.Stats.SimMakespan
					}
					rep.Cells = append(rep.Cells, GridCell{
						Degree:      n,
						Mu:          mu,
						Procs:       procs,
						Seed:        seed,
						Profile:     name,
						WallSeconds: wall.Seconds(),
						BitOps:      c.BitOps(),
						Tasks:       res.Stats.Tasks,
						Metrics:     c.Snapshot(),
					})
				}
			}
		}
	}
	return rep, nil
}

// WriteGridJSON runs the grid and writes the report as indented JSON.
func WriteGridJSON(w io.Writer, cfg Config) error {
	rep, err := RunGrid(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ValidateGridJSON checks that data parses as a GridReport with the
// current schema and self-consistent cells — the check CI runs on the
// emitted -json output and on committed snapshots.
func ValidateGridJSON(data []byte) error {
	var rep GridReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("grid json: %w", err)
	}
	if rep.Schema != GridSchema {
		return fmt.Errorf("grid json: schema %q, want %q", rep.Schema, GridSchema)
	}
	if len(rep.Cells) == 0 {
		return fmt.Errorf("grid json: no cells")
	}
	for i, c := range rep.Cells {
		if c.Degree < 1 || c.Procs < 1 || c.Mu < 1 {
			return fmt.Errorf("grid json: cell %d has invalid shape %+v", i, c)
		}
		if c.Profile != "" {
			if _, err := mp.ParseProfile(c.Profile); err != nil {
				return fmt.Errorf("grid json: cell %d: %w", i, err)
			}
		}
		if c.WallSeconds < 0 || c.BitOps < 0 {
			return fmt.Errorf("grid json: cell %d has negative measurements", i)
		}
		if c.Metrics.Total().Muls <= 0 {
			return fmt.Errorf("grid json: cell %d recorded no multiplications", i)
		}
		if c.P50Seconds < 0 || c.P99Seconds < 0 || c.ThroughputRPS < 0 {
			return fmt.Errorf("grid json: cell %d has negative load statistics", i)
		}
		if c.P99Seconds < c.P50Seconds {
			return fmt.Errorf("grid json: cell %d has p99 %.6g below p50 %.6g", i, c.P99Seconds, c.P50Seconds)
		}
	}
	return nil
}
