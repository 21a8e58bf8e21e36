package desc

import (
	"strings"
	"testing"
)

// TestValidateTrafficParameters: the literal parameters of
// env_traffic_start are checked against what core.EnvExec accepts;
// factor-bound ones resolve per run and are skipped.
func TestValidateTrafficParameters(t *testing.T) {
	cases := []struct {
		name   string
		params []string
		refs   map[string]string
		want   string // "" = valid
	}{
		{"case study shape", []string{"choice", "0", "random_switch_amount", "1"},
			map[string]string{"bw": "fact_bw", "random_pairs": "fact_pairs"}, ""},
		{"all literal", []string{"bw", "50", "random_pairs", "5", "choice", "2",
			"random_seed", "-3", "random_switch_amount", "0", "random_switch_seed", "9"}, nil, ""},
		{"letter O for zero", []string{"bw", "10", "random_switch_amount", "1O"}, nil,
			`random_switch_amount="1O" is not an integer`},
		{"fractional bw", []string{"bw", "10.5"}, nil, `bw="10.5" is not an integer`},
		{"zero bw", []string{"bw", "0"}, nil, "bw=0 must be ≥ 1"},
		{"missing bw", []string{"random_pairs", "5"}, nil, "missing bw"},
		{"zero pairs", []string{"bw", "10", "random_pairs", "0"}, nil, "random_pairs=0 must be ≥ 1"},
		{"choice too big", []string{"bw", "10", "choice", "3"}, nil, "choice=3 must be ≤ 2"},
		{"negative choice", []string{"bw", "10", "choice", "-1"}, nil, "choice=-1 must be ≥ 0"},
		{"negative switch amount", []string{"bw", "10", "random_switch_amount", "-1"}, nil,
			"random_switch_amount=-1 must be ≥ 0"},
		{"junk seed", []string{"bw", "10", "random_seed", "x"}, nil, `random_seed="x" is not an integer`},
		{"junk switch seed", []string{"bw", "10", "random_switch_seed", ""}, nil,
			`random_switch_seed="" is not an integer`},
		{"bound parameter is skipped", []string{"bw", "10"},
			map[string]string{"random_switch_amount": "fact_pairs"}, ""},
	}
	for _, c := range cases {
		e := CaseStudy(1)
		a := Act("env_traffic_start", c.params...)
		for k, v := range c.refs {
			a = a.WithFactorRef(k, v)
		}
		e.EnvProcesses[0].Actions[1] = a
		err := Validate(e)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: Validate passed, want error containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}
