package main

import (
	"fmt"

	"rc4break/internal/netsim"
)

// printBudget prints the traced run's layer budget: each blocking-path
// layer's share of the window's job-slot time, the unattributed residual,
// the time spent off the blocking path, and the tracing overhead against
// the untraced pass of the same jobs.
func (b *bench) printBudget() {
	p, out := b.main, b.out
	slotTime := p.wall * float64(b.slots)
	fmt.Fprintf(out, "layer budget: traced window %.3f s", p.wall)
	if b.slots > 1 {
		fmt.Fprintf(out, " x %d slots = %.3f slot-s", b.slots, slotTime)
	}
	if b.untraced != nil {
		fmt.Fprintf(out, "; untraced %.3f s, tracing overhead %+.1f%%\n", b.untraced.wall,
			100*(p.wall-b.untraced.wall)/b.untraced.wall)
	} else {
		fmt.Fprintf(out, "; tracing overhead 0%% (every probe reads the service from outside the window)\n")
	}
	sum := 0.0
	for _, name := range b.budget {
		s := b.lay.get(name)
		sum += s
		fmt.Fprintf(out, "  %-28s %9.3f s %6.1f%%\n", name, s, 100*ratio(s, slotTime))
	}
	fmt.Fprintf(out, "  %-28s %9.3f s %6.1f%%\n", "residual", slotTime-sum, 100*ratio(slotTime-sum, slotTime))
	if len(b.parallel) > 0 {
		fmt.Fprintf(out, "  other layer time, concurrent with the rows above or inside the residual (share of the window):\n")
		for _, name := range b.parallel {
			s := b.lay.get(name)
			fmt.Fprintf(out, "  %-28s %9.3f s %6.1f%%\n", name, s, 100*ratio(s, p.wall))
		}
	}
}

// printCostModel converts the median job's observations and oracle checks
// into the paper's attack time: capture at the §6.3 HTTPS request rate or
// the §5.4 TKIP injection rate, and cookie brute force at the §6.3 testing
// rate. TKIP candidates are verified offline (Michael MIC and ICV), so only
// capture bounds a TKIP job.
func (b *bench) printCostModel() {
	p := b.main
	for _, attack := range []string{"cookie", "tkip"} {
		records, checks := p.costs(attack)
		if len(checks) == 0 {
			continue
		}
		if attack == "tkip" {
			fmt.Fprintf(b.out, "cost model tkip: median %.0f frames = %.3g h of injection at %d/s; %.0f candidates checked offline (MIC and ICV); bound by capture\n",
				median(records), median(records)/netsim.TKIPInjectionPerSecond/3600, netsim.TKIPInjectionPerSecond, median(checks))
			continue
		}
		captureH := median(records) / netsim.HTTPSRequestsPerSecond / 3600
		bruteH := median(checks) / netsim.BruteForceTestsPerSecond / 3600
		bound := "capture"
		if bruteH > captureH {
			bound = "brute force"
		}
		fmt.Fprintf(b.out, "cost model cookie: median %.0f records = %.3g h of HTTPS requests at %d/s; median %.0f checks = %.3g h of brute force at %d/s; bound by %s\n",
			median(records), captureH, netsim.HTTPSRequestsPerSecond, median(checks), bruteH, netsim.BruteForceTestsPerSecond, bound)
	}
}
