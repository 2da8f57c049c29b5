// Command riscv-dis disassembles 32-bit RISC-V instruction words given
// as hex arguments or read from stdin (whitespace-separated), using
// the same decoder that serves as ChatFuzz's step-2 reward agent.
//
// Exit status: 0 done, 2 a word that is not hex.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"chatfuzz/internal/isa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(words []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(words) == 0 {
		sc := bufio.NewScanner(stdin)
		sc.Split(bufio.ScanWords)
		for sc.Scan() {
			words = append(words, sc.Text())
		}
	}
	invalid := 0
	for _, w := range words {
		raw, err := strconv.ParseUint(strings.TrimPrefix(strings.ToLower(w), "0x"), 16, 32)
		if err != nil {
			fmt.Fprintf(stderr, "riscv-dis: %q is not a 32-bit hex word\n", w)
			return 2
		}
		inst := isa.Decode(uint32(raw))
		if !inst.Valid() {
			invalid++
		}
		fmt.Fprintf(stdout, "%08x  %s\n", raw, isa.DisassembleInst(inst))
	}
	if n := len(words); n > 0 {
		fmt.Fprintf(stdout, "# %d words, %d invalid  (Eq.1 reward f = N - 5*Invalid = %d)\n",
			n, invalid, n-5*invalid)
	}
	return 0
}
