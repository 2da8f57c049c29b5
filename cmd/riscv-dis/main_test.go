package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: words come from argv, or from stdin when argv is empty, with
// or without a 0x prefix; the summary counts the invalid words and
// gives Eq. 1's reward; a word that is not hex stops the run with exit
// status 2.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
		code  int
		out   string
		err   string
	}{
		{
			name: "argv",
			args: []string{"0x02f78633", "00053003", "FFFFFFFF"},
			out: "02f78633  mul a2, a5, a5\n" +
				"00053003  ld zero, 0(a0)\n" +
				"ffffffff  .word 0xffffffff\n" +
				"# 3 words, 1 invalid  (Eq.1 reward f = N - 5*Invalid = -2)\n",
		},
		{
			name:  "stdin",
			stdin: "00000013\n\t0X00100593  ",
			out: "00000013  addi zero, zero, 0\n" +
				"00100593  addi a1, zero, 1\n" +
				"# 2 words, 0 invalid  (Eq.1 reward f = N - 5*Invalid = 2)\n",
		},
		{name: "empty stdin"},
		{
			name: "not hex",
			args: []string{"00000013", "0xzz", "00000013"},
			code: 2,
			out:  "00000013  addi zero, zero, 0\n",
			err:  `riscv-dis: "0xzz" is not a 32-bit hex word` + "\n",
		},
		{
			name: "wider than 32 bits",
			args: []string{"100000000"},
			code: 2,
			err:  `riscv-dis: "100000000" is not a 32-bit hex word` + "\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if code != tc.code || stdout.String() != tc.out || stderr.String() != tc.err {
				t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s\nwant exit %d, stdout:\n%s\nstderr:\n%s",
					code, stdout.String(), stderr.String(), tc.code, tc.out, tc.err)
			}
		})
	}
}
