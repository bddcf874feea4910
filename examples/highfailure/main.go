// High-failure regime: the Figure 8 setting (f up to 10%) scaled to one
// instance. Long chains under high failure rates inflate the product
// counts x[i] exponentially toward the chain head, so mapping choices are
// dramatized: this example contrasts all heuristics, shows the x blow-up
// and checks the analytic throughput against the simulator.
//
// Run with: go run ./examples/highfailure
package main

import (
	"fmt"
	"log"

	microfab "microfab"
)

func main() {
	pr := microfab.CampaignParams(40, 5, 14)
	pr.FMin, pr.FMax = 0.0, 0.10 // the paper's high-failure campaign
	in, err := microfab.GenerateChain(pr, 2010)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("instance    :", in.App, "on", in.M(), "machines, f in [0,10%]")

	fmt.Println("\nheuristic comparison (specialized mappings):")
	var h4w *microfab.Mapping
	for _, h := range []string{"H1", "H2", "H2r", "H3", "H4", "H4w", "H4f"} {
		mp, err := microfab.Solve(in, h, 1)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := microfab.Evaluate(in, mp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4s period %9.1f ms  throughput %.5f/s\n", h, ev.Period, ev.Throughput*1000)
		if h == "H4w" {
			h4w = mp
		}
	}

	// The x[i] blow-up along the chain: products needed per finished one.
	ev, err := microfab.Evaluate(in, h4w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nproduct inflation under H4w: head x[0]=%.2f, mid x[%d]=%.2f, tail x[%d]=%.2f\n",
		ev.ProductCounts[0], in.N()/2, ev.ProductCounts[in.N()/2], in.N()-1, ev.ProductCounts[in.N()-1])
	plan, err := microfab.PlanInputs(in, h4w, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw products for 100 finished: %.0f\n", plan.Total)

	// Validate the analytic model against the stochastic simulator.
	thr, err := microfab.MeasureThroughput(in, h4w, 2000, 0.2, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated steady throughput: %.6f/ms (analytic %.6f/ms, ratio %.3f)\n",
		thr, ev.Throughput, thr/ev.Throughput)
}
