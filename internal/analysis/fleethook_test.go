package analysis

import "testing"

func TestFleethookFixture(t *testing.T) {
	runFixture(t, "dragster/internal/fleethookbad", FleethookAnalyzer())
}

// TestFleethookAllowsFleetPackage runs the analyzer over the fixture
// fleet package, which assigns a budget share: as the owner of budget
// arbitration it must produce zero findings.
func TestFleethookAllowsFleetPackage(t *testing.T) {
	runFixture(t, "dragster/internal/fleet", FleethookAnalyzer())
}

// TestFleethookAllowsFleetSubpackages: the control plane splits
// internal/fleet into subpackages (event); the allowlist is a path
// prefix, so they inherit the fleet's arbitration ownership.
func TestFleethookAllowsFleetSubpackages(t *testing.T) {
	runFixture(t, "dragster/internal/fleet/event", FleethookAnalyzer())
}
