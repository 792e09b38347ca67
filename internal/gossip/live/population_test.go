package live

import (
	"testing"

	"dynagg/internal/env"
)

// TestLivePopulationConfigValidation pins the New-time errors around
// Config.Population: it must be set, and the message must steer
// callers to the constructors.
func TestLivePopulationConfigValidation(t *testing.T) {
	u := env.NewUniform(4)
	agents, _ := pushSumAgents(4)

	if _, err := New(Config{Env: u, Ticks: 1}); err == nil {
		t.Error("nil Population accepted")
	}
	if _, err := New(Config{Env: u, Ticks: 1, Population: NewAgentPopulation(agents)}); err != nil {
		t.Errorf("valid Population config rejected: %v", err)
	}
}
