package bench

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nas"
)

func TestHostMatrixMeasure(t *testing.T) {
	if os.Getenv("HOSTMATRIX") == "" {
		t.Skip("measurement helper; set HOSTMATRIX=1")
	}
	tiers := []string{"", "nvme", "farmem"}
	for _, app := range nas.Apps() {
		const scale = 0.1
		cfg0, _, err := ConfigFor(app, scale, 0)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("%-6s", app.Name)
		for _, tier := range tiers {
			cfg := cfg0
			if tier != "" {
				s, err := core.ParseBackendSpec(tier)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Backend = &s
			}
			for _, slow := range []bool{true, false} {
				c := cfg
				c.NoFastPath = slow
				best := time.Duration(1 << 62)
				for r := 0; r < 3; r++ {
					start := time.Now()
					if _, err := core.Run(app.Build(scale), c); err != nil {
						t.Fatal(err)
					}
					if d := time.Since(start); d < best {
						best = d
					}
				}
				fmt.Printf("  %8.2f", float64(best.Microseconds())/1000)
			}
		}
		fmt.Println()
	}
}
