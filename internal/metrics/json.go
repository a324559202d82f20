package metrics

import (
	"encoding/json"
	"fmt"

	"realroots/internal/mp"
)

// JSON form of a Report: phases keyed by name (stable across phase
// renumbering, readable in dumps), zero phases omitted, plus the total.
// The histogram is emitted as a slice trimmed of trailing zero buckets.
//
//	{"phases":{"remainder":{"muls":…,"bitlenHist":[0,3,…]},…},
//	 "total":{…}}

// phaseJSON is the wire form of one PhaseReport.
type phaseJSON struct {
	Muls    int64 `json:"muls"`
	MulBits int64 `json:"mulBits"`
	Divs    int64 `json:"divs"`
	DivBits int64 `json:"divBits"`
	Adds    int64 `json:"adds"`
	Evals   int64 `json:"evals"`
	// Actual-cost estimates under the run's arithmetic profile; omitted
	// when equal to the model cost (the schoolbook-profile case), which
	// also keeps pre-profile snapshots and their readers compatible.
	MulBitsActual int64   `json:"mulBitsActual,omitempty"`
	DivBitsActual int64   `json:"divBitsActual,omitempty"`
	BitLen        []int64 `json:"bitlenHist,omitempty"`
	// Tiers maps kernel-tier names to multiplication counts; omitted
	// when zero (every schoolbook-profile report, and every pre-tier
	// snapshot).
	Tiers map[string]int64 `json:"tiers,omitempty"`
}

func (p PhaseReport) toJSON() phaseJSON {
	j := phaseJSON{
		Muls:    p.Muls,
		MulBits: p.MulBits,
		Divs:    p.Divs,
		DivBits: p.DivBits,
		Adds:    p.Adds,
		Evals:   p.Evals,
	}
	if p.MulBitsActual != p.MulBits {
		j.MulBitsActual = p.MulBitsActual
	}
	if p.DivBitsActual != p.DivBits {
		j.DivBitsActual = p.DivBitsActual
	}
	last := -1
	for b := 0; b < BitLenBuckets; b++ {
		if p.BitLen[b] != 0 {
			last = b
		}
	}
	if last >= 0 {
		j.BitLen = append(j.BitLen, p.BitLen[:last+1]...)
	}
	for t, n := range p.Tiers {
		if n != 0 {
			if j.Tiers == nil {
				j.Tiers = make(map[string]int64)
			}
			j.Tiers[mp.Tier(t).String()] = n
		}
	}
	return j
}

// tierByName maps tier names back to their index.
var tierByName = func() map[string]mp.Tier {
	m := make(map[string]mp.Tier, mp.NumTiers)
	for t := 0; t < mp.NumTiers; t++ {
		m[mp.Tier(t).String()] = mp.Tier(t)
	}
	return m
}()

func (j phaseJSON) toReport() (PhaseReport, error) {
	p := PhaseReport{
		Muls:          j.Muls,
		MulBits:       j.MulBits,
		Divs:          j.Divs,
		DivBits:       j.DivBits,
		Adds:          j.Adds,
		Evals:         j.Evals,
		MulBitsActual: j.MulBitsActual,
		DivBitsActual: j.DivBitsActual,
	}
	// Absent actual-cost fields (including all pre-profile snapshots)
	// mean "same as the model cost".
	if p.MulBitsActual == 0 {
		p.MulBitsActual = p.MulBits
	}
	if p.DivBitsActual == 0 {
		p.DivBitsActual = p.DivBits
	}
	if len(j.BitLen) > BitLenBuckets {
		return p, fmt.Errorf("metrics: bitlenHist has %d buckets, max %d", len(j.BitLen), BitLenBuckets)
	}
	copy(p.BitLen[:], j.BitLen)
	for name, n := range j.Tiers {
		t, ok := tierByName[name]
		if !ok {
			return p, fmt.Errorf("metrics: unknown multiplication tier %q", name)
		}
		p.Tiers[t] = n
	}
	return p, nil
}

// MarshalJSON encodes the report with phases keyed by name; phases with
// no recorded operations are omitted.
func (r Report) MarshalJSON() ([]byte, error) {
	phases := make(map[string]phaseJSON, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		if r.Phases[p] == (PhaseReport{}) {
			continue
		}
		phases[p.String()] = r.Phases[p].toJSON()
	}
	return json.Marshal(struct {
		Phases map[string]phaseJSON `json:"phases"`
		Total  phaseJSON            `json:"total"`
	}{phases, r.Total().toJSON()})
}

// phaseByName maps phase names back to their index.
var phaseByName = func() map[string]Phase {
	m := make(map[string]Phase, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		m[p.String()] = p
	}
	return m
}()

// UnmarshalJSON decodes the name-keyed form produced by MarshalJSON
// (the total field is ignored; it is derived). Unknown phase names are
// an error so schema drift is caught rather than silently dropped.
func (r *Report) UnmarshalJSON(data []byte) error {
	var wire struct {
		Phases map[string]phaseJSON `json:"phases"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	var out Report
	for name, pj := range wire.Phases {
		p, ok := phaseByName[name]
		if !ok {
			return fmt.Errorf("metrics: unknown phase %q", name)
		}
		pr, err := pj.toReport()
		if err != nil {
			return err
		}
		out.Phases[p] = pr
	}
	*r = out
	return nil
}
