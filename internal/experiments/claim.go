package experiments

import "fmt"

// Claim is one of the paper's quantitative headlines about an exhibit,
// declared on the exhibit's entry. measure reads its numbers through avg,
// a column's AVG-row value; format prints them, and Units names them as
// benchmark metrics.
type Claim struct {
	Quantity, Paper string
	Units           []string
	format          string
	measure         func(avg func(col string) float64) []float64
}

// Claimed lists the exhibits that make a Claim, in paper order.
func Claimed() []string {
	var out []string
	for _, e := range exhibits {
		if e.claim != nil {
			out = append(out, e.id)
		}
	}
	return out
}

// Claim returns the paper's headline about t's exhibit (nil when it makes
// none), the numbers t's AVG row measures for it, and those numbers as the
// paper-vs-measured report prints them.
func (t *Table) Claim() (c *Claim, values []float64, measured string) {
	if e := lookup(t.ID); e != nil && e.claim != nil {
		c, values = e.claim, e.claim.measure(t.Average)
		args := make([]any, len(values))
		for i, v := range values {
			args[i] = v
		}
		measured = fmt.Sprintf(c.format, args...)
	}
	return c, values, measured
}
