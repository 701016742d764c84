// Command jsoncheck validates that its input is well-formed JSON.
//
// It exists for shell smoke tests (scripts/serve_smoke.sh) that want
// to assert an endpoint serves parseable JSON without depending on
// curl, jq, or python being installed. Input comes from stdin, or from
// an HTTP GET when -url is given (which must also answer 200). Exit
// status 0 means valid JSON; 1 means the fetch or the parse failed
// (the error is printed to stderr). With -print the validated document
// is also copied to stdout, so a smoke test can grep a value out of it.
//
// Usage:
//
//	jsoncheck -url http://host/alertz?format=json
//	jsoncheck -print -url http://host/metrics.json | grep ...
//	some-producer | jsoncheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

func main() {
	url := flag.String("url", "", "fetch this URL (expecting 200) instead of reading stdin")
	echo := flag.Bool("print", false, "copy the validated document to stdout")
	flag.Parse()

	data, err := read(*url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsoncheck: %v\n", err)
		os.Exit(1)
	}
	if len(data) == 0 {
		fmt.Fprintln(os.Stderr, "jsoncheck: empty input")
		os.Exit(1)
	}
	if !json.Valid(data) {
		// Decode to surface a useful position in the error.
		var v any
		uerr := json.Unmarshal(data, &v)
		fmt.Fprintf(os.Stderr, "jsoncheck: invalid JSON: %v\n", uerr)
		os.Exit(1)
	}
	if *echo {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintf(os.Stderr, "jsoncheck: %v\n", err)
			os.Exit(1)
		}
	}
}

func read(url string) ([]byte, error) {
	if url == "" {
		return io.ReadAll(os.Stdin)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data, nil
}
