// Command declog audits a run's decision ledger: it joins the frequency
// decisions recorded by the events ledger (what the ManDyn controller chose,
// and what the tuner's model predicted for that choice) against the achieved
// per-kernel energy attribution, renders a per-function decision timeline,
// flags decisions whose achieved EDP deviates from the prediction beyond a
// threshold, and compares every choice against the brute-force sweep's sweet
// spot — "this run left X% EDP on the table".
//
// Examples:
//
//	sphexa -sim turbulence -ranks 2 -s 4 -ppr 10e6 -strategy mandyn \
//	    -energy-validate -events-out run.events.jsonl -report run.json
//	declog -events run.events.jsonl -report run.json
//	declog -events run.events.jsonl -threshold 10 -json
//
// Exit status is 0 when the ledger holds at least one frequency decision,
// 1 otherwise (missing file, unparseable ledger, or a run that never
// switched clocks — nothing to audit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"sphenergy/internal/attrib"
	"sphenergy/internal/events"
	"sphenergy/internal/instr"
)

func main() {
	var (
		eventsPath = flag.String("events", "", "decision-ledger JSONL (sphexa -events-out)")
		reportPath = flag.String("report", "", "energy report JSON (sphexa -report) for the achieved-EDP join")
		threshold  = flag.Float64("threshold", 25, "flag decisions whose achieved EDP deviates from the prediction by more than this percentage")
		jsonOut    = flag.Bool("json", false, "emit the analysis as JSON instead of the rendered table")
	)
	flag.Parse()
	if *eventsPath == "" {
		fmt.Fprintln(os.Stderr, "declog: -events is required")
		flag.Usage()
		os.Exit(1)
	}

	evs, beyond, err := events.ReadFile(*eventsPath)
	fatalIf(err)
	if beyond > 0 {
		fmt.Fprintf(os.Stderr, "declog: warning: ledger file is truncated; auditing the valid prefix (%d bytes beyond it not read)\n", beyond)
	}

	var att *attrib.Attribution
	system := ""
	if *reportPath != "" {
		rep, err := instr.ReadReportFile(*reportPath)
		fatalIf(err)
		att = rep.Attribution
		system = rep.System
	}

	a := analyze(evs, att, *threshold)
	a.Truncated, a.BeyondBytes = beyond > 0, beyond
	if a.System == "" {
		a.System = system
	}
	// A recovery audit (crash/restart/budget timeline under a baseline or
	// static strategy) legitimately has no frequency decisions; only bail
	// when there are no anomalies to report either.
	if a.Decisions == 0 && len(a.Anomalies) == 0 {
		fmt.Fprintln(os.Stderr, "declog: ledger holds no frequency decisions or anomalies — nothing to audit")
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(a))
		return
	}
	fmt.Print(render(a))
}

// analysis is the joined audit: one row per instrumented function that saw
// at least one frequency decision.
type analysis struct {
	Simulation string `json:"simulation,omitempty"`
	System     string `json:"system,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	Steps      int    `json:"steps,omitempty"`
	Events     int    `json:"events"`
	Decisions  int    `json:"decisions"`
	Truncated  bool   `json:"truncated,omitempty"`
	// BeyondBytes is how much of a truncated ledger file lay past the valid
	// prefix the audit covers: the malformed line and everything after it.
	BeyondBytes int64 `json:"bytes_beyond_prefix,omitempty"`
	Rows        []row `json:"rows"`
	// AggLeftPct is the aggregate EDP left on the table versus the
	// brute-force sweet spot, over functions with sweep data.
	AggLeftPct   float64        `json:"agg_left_pct"`
	HaveSweep    bool           `json:"have_sweep"`
	HaveAchieved bool           `json:"have_achieved"`
	Flagged      int            `json:"flagged"`
	Anomalies    map[string]int `json:"anomalies,omitempty"`
	ThresholdPct float64        `json:"threshold_pct"`
}

// row is one function's decision audit.
type row struct {
	Function  string `json:"function"`
	Decisions int    `json:"decisions"`
	// ClockMHz is the modal applied clock across the function's decisions.
	ClockMHz int `json:"clock_mhz"`
	// PredEDPJs is the tuner model's per-call EDP at the chosen clock.
	PredEDPJs float64 `json:"pred_edp_js,omitempty"`
	// AchievedEDPJs is the attribution's per-call EDP (mean call time ×
	// mean call sampled energy), joined from the report.
	AchievedEDPJs float64 `json:"achieved_edp_js,omitempty"`
	// DevPct is achieved versus predicted, in percent; Flagged marks rows
	// beyond the threshold.
	DevPct  float64 `json:"dev_pct"`
	Flagged bool    `json:"flagged,omitempty"`
	// BestMHz/BestEDPJs locate the brute-force sweep's sweet spot (zero
	// when the ledger holds no tuner sweep for this function); LeftPct is
	// the predicted EDP sacrificed by not running there.
	BestMHz   int     `json:"best_mhz,omitempty"`
	BestEDPJs float64 `json:"best_edp_js,omitempty"`
	LeftPct   float64 `json:"left_pct"`
}

// anomalyTypes are the resilience event families surfaced in the audit
// footer: each one is a decision the run took under duress.
var anomalyTypes = []events.Type{
	events.FreqRetry, events.FreqAbsorb, events.FreqClamp,
	events.FreqBreakerTrip, events.FreqShortCircuit,
	events.RankFail, events.Degradation,
	events.SamplerDegraded, events.SamplerRecovered, events.SamplerOverflow,
	events.CheckpointSave, events.CheckpointRestore, events.Restart,
	events.WatchdogStall, events.BudgetStop,
}

// analyze joins the ledger's decision stream with the tuner sweep it also
// carries and, when available, the attribution rows from the energy report.
func analyze(evs []events.Event, att *attrib.Attribution, thresholdPct float64) *analysis {
	a := &analysis{Events: len(evs), ThresholdPct: thresholdPct, Anomalies: map[string]int{}}

	// sweep[fn][mhz] is the tuner's predicted per-call EDP; clocks[fn][mhz]
	// counts applied decisions.
	sweep := map[string]map[int]float64{}
	clocks := map[string]map[int]int{}
	// predAt[fn][mhz] remembers the prediction attached to decisions, the
	// fallback when the ledger predates the sweep events.
	predAt := map[string]map[int]float64{}
	for _, ev := range evs {
		switch ev.Type {
		case events.RunStart:
			a.Simulation, a.Strategy, a.Steps = ev.Subject, ev.Detail, int(ev.Value)
		case events.TunerMeasure:
			if sweep[ev.Subject] == nil {
				sweep[ev.Subject] = map[int]float64{}
			}
			sweep[ev.Subject][ev.AppliedMHz] = ev.PredEDPJs
		case events.FreqDecision:
			if clocks[ev.Subject] == nil {
				clocks[ev.Subject] = map[int]int{}
			}
			clocks[ev.Subject][ev.AppliedMHz]++
			a.Decisions++
			if ev.PredEDPJs > 0 {
				if predAt[ev.Subject] == nil {
					predAt[ev.Subject] = map[int]float64{}
				}
				predAt[ev.Subject][ev.AppliedMHz] = ev.PredEDPJs
			}
		}
		for _, t := range anomalyTypes {
			if ev.Type == t {
				a.Anomalies[string(t)]++
			}
		}
	}

	// Achieved per-call EDP from the attribution's function rows, summed
	// across ranks: (Σ time / Σ calls) × (Σ sampled / Σ calls).
	achieved := map[string]float64{}
	if att != nil {
		type acc struct {
			timeS, sampledJ float64
			calls           int
		}
		byFn := map[string]*acc{}
		for _, r := range att.Functions {
			c := byFn[r.Name]
			if c == nil {
				c = &acc{}
				byFn[r.Name] = c
			}
			c.timeS += r.TimeS
			c.sampledJ += r.SampledJ
			c.calls += r.Calls
		}
		for name, c := range byFn {
			if c.calls > 0 {
				achieved[name] = (c.timeS / float64(c.calls)) * (c.sampledJ / float64(c.calls))
			}
		}
		a.HaveAchieved = len(achieved) > 0
	}

	var sumChosen, sumBest float64
	for fn, byClock := range clocks {
		r := row{Function: fn}
		for mhz, n := range byClock {
			r.Decisions += n
			// Modal clock; ties break toward the higher clock for
			// determinism.
			if n > byClock[r.ClockMHz] || (n == byClock[r.ClockMHz] && mhz > r.ClockMHz) {
				r.ClockMHz = mhz
			}
		}
		if sw := sweep[fn]; len(sw) > 0 {
			a.HaveSweep = true
			r.PredEDPJs = sw[r.ClockMHz]
			// Sweet spot: strict-min over descending clocks, matching the
			// tuner's first-best-wins tie-break and independent of the
			// concurrent sweep's event order.
			mhzs := make([]int, 0, len(sw))
			for mhz := range sw {
				mhzs = append(mhzs, mhz)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(mhzs)))
			r.BestMHz, r.BestEDPJs = mhzs[0], sw[mhzs[0]]
			for _, mhz := range mhzs[1:] {
				if sw[mhz] < r.BestEDPJs {
					r.BestMHz, r.BestEDPJs = mhz, sw[mhz]
				}
			}
			if chosen, ok := sw[r.ClockMHz]; ok && r.BestEDPJs > 0 {
				r.LeftPct = (chosen - r.BestEDPJs) / r.BestEDPJs * 100
				sumChosen += chosen
				sumBest += r.BestEDPJs
			}
		}
		if r.PredEDPJs == 0 {
			r.PredEDPJs = predAt[fn][r.ClockMHz]
		}
		r.AchievedEDPJs = achieved[fn]
		if r.PredEDPJs > 0 && r.AchievedEDPJs > 0 {
			r.DevPct = (r.AchievedEDPJs - r.PredEDPJs) / r.PredEDPJs * 100
			if math.Abs(r.DevPct) > thresholdPct {
				r.Flagged = true
				a.Flagged++
			}
		}
		a.Rows = append(a.Rows, r)
	}
	sort.Slice(a.Rows, func(i, j int) bool { return a.Rows[i].Function < a.Rows[j].Function })
	if sumBest > 0 {
		a.AggLeftPct = (sumChosen - sumBest) / sumBest * 100
	}
	return a
}

// render formats the audit as a human-readable report.
func render(a *analysis) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "run: %s", orDash(a.Simulation))
	if a.System != "" {
		fmt.Fprintf(&sb, " on %s", a.System)
	}
	fmt.Fprintf(&sb, ", strategy %s, %d steps — %d events, %d frequency decisions",
		orDash(a.Strategy), a.Steps, a.Events, a.Decisions)
	if a.Truncated {
		fmt.Fprintf(&sb, " (truncated ledger: %d bytes beyond the valid prefix not read)", a.BeyondBytes)
	}
	sb.WriteString("\n\n")

	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "function\tdecisions\tclock\tpred EDP/call\tachieved\tdev\tsweet spot\tleft")
	for _, r := range a.Rows {
		dev, flag := "-", ""
		if r.AchievedEDPJs > 0 && r.PredEDPJs > 0 {
			dev = fmt.Sprintf("%+.1f%%", r.DevPct)
			if r.Flagged {
				flag = " !"
			}
		}
		spot, left := "-", "-"
		if r.BestMHz > 0 {
			spot = fmt.Sprintf("%d MHz", r.BestMHz)
			left = fmt.Sprintf("%.1f%%", r.LeftPct)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d MHz\t%s\t%s\t%s%s\t%s\t%s\n",
			r.Function, r.Decisions, r.ClockMHz,
			edp(r.PredEDPJs), edp(r.AchievedEDPJs), dev, flag, spot, left)
	}
	tw.Flush()

	if a.HaveSweep {
		fmt.Fprintf(&sb, "\naggregate: this run left %.2f%% EDP on the table vs the brute-force sweet spot\n", a.AggLeftPct)
	} else {
		sb.WriteString("\nno tuner sweep in the ledger: run the tuner through the same ledger for sweet-spot comparison\n")
	}
	if !a.HaveAchieved {
		sb.WriteString("no attribution join: pass -report from a sampled run (-energy-validate) for achieved EDP\n")
	}
	if a.Flagged > 0 {
		fmt.Fprintf(&sb, "%d decision(s) deviate from prediction beyond %.0f%% — inspect the flagged rows\n",
			a.Flagged, a.ThresholdPct)
	}
	if len(a.Anomalies) > 0 {
		keys := make([]string, 0, len(a.Anomalies))
		for k := range a.Anomalies {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%d %s", a.Anomalies[k], k))
		}
		fmt.Fprintf(&sb, "anomalies: %s\n", strings.Join(parts, ", "))
	}
	return sb.String()
}

func edp(v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g J·s", v)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "declog:", err)
		os.Exit(1)
	}
}
