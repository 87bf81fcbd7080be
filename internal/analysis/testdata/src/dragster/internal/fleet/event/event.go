// Package event stands in for a dragster/internal/fleet subpackage in
// fleethook fixtures: subpackages of internal/fleet share ownership of
// budget arbitration, so the entry point is legal here too.
package event

import "dragster/internal/core"

func ApplyShare(c *core.Controller, share int) error {
	return c.SetTaskBudget(share)
}
