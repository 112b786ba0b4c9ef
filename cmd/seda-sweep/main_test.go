package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCheckExploreFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted, else the flag the error must name
	}{
		{[]string{"-fig", "5b"}, ""},
		{[]string{"-fig", "all", "-json"}, ""},
		{[]string{"-explore", "rows=16|32", "-base", "edge", "-workloads", "let", "-scheme", "SeDA"}, ""},
		{[]string{"-fig", "5b", "-workloads", "let"}, "-workloads"},
		{[]string{"-base", "server"}, "-base"},
		{[]string{"-json", "-scheme", "SGX-64B"}, "-scheme"},
		{[]string{"-explore", "", "-workloads", "let"}, "-workloads"},
	} {
		fs := flag.NewFlagSet("seda-sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("fig", "all", "")
		fs.Bool("json", false, "")
		fs.String("explore", "", "")
		for _, name := range exploreOnly {
			fs.String(name, "", "")
		}
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := checkExploreFlags(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: err %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}
