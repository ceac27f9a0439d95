// Golden testdata for the ctxflow analyzer, scoped as internal/load:
// request-context discipline (no fresh Background/TODO where a request
// context is in scope) and http.Response bodies closed on every CFG
// path, next to the sanctioned idioms (escape to caller, deferred
// closure close, close-before-branch, retry loops).
package ctxflow

import (
	"context"
	"io"
	"net/http"
)

func handler(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want `context\.Background inside a function that carries a request context`
	_, _, _ = ctx, w, r
}

func rpcHelper(ctx context.Context, c *http.Client) {
	todo := context.TODO() // want `context\.TODO inside a function that carries a request context`
	_, _, _ = todo, ctx, c
}

func backgroundWorker() {
	ctx := context.Background() // clean: no request context in scope
	_ = ctx
}

func leaky(c *http.Client, url string) error {
	resp, err := c.Get(url) // want `response body for resp is not closed on every path`
	if err != nil {
		return err
	}
	_, _ = io.ReadAll(resp.Body)
	return nil
}

func closedDeferred(c *http.Client, url string) error {
	resp, err := c.Get(url) // clean: deferred close after the error check
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.ReadAll(resp.Body)
	return err
}

func earlyReturn(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url) // want `response body for resp is not closed on every path`
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, io.ErrUnexpectedEOF // the leaky early exit
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return data, err
}

// The load.Client.do idiom: read what is needed, close explicitly,
// then branch.
func closedExplicit(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url) // clean: closed before any branch
	if err != nil {
		return 0, err
	}
	code := resp.StatusCode
	resp.Body.Close()
	return code, nil
}

func passthrough(c *http.Client, url string) (*http.Response, error) {
	resp, err := c.Get(url) // clean: the caller takes the obligation
	return resp, err
}

func handoff(c *http.Client, url string) error {
	resp, err := c.Get(url) // clean: consume takes over the response
	if err != nil {
		return err
	}
	return consume(resp)
}

func consume(resp *http.Response) error {
	defer resp.Body.Close()
	_, err := io.ReadAll(resp.Body)
	return err
}

// Passing only the Body does NOT hand off the close obligation: the
// reader contract is read-only.
func bodyOnly(c *http.Client, url string) error {
	resp, err := c.Get(url) // want `response body for resp is not closed on every path`
	if err != nil {
		return err
	}
	return decode(resp.Body)
}

func decode(r io.Reader) error {
	_, err := io.ReadAll(r)
	return err
}

// Close wrapped in a deferred closure.
func deferredClosure(c *http.Client, url string) error {
	resp, err := c.Get(url) // clean: deferred closure closes
	if err != nil {
		return err
	}
	defer func() {
		_ = resp.Body.Close()
	}()
	_, err = io.ReadAll(resp.Body)
	return err
}

// Retry loop: each iteration acquires and settles its own response.
func retry(c *http.Client, url string) error {
	for i := 0; i < 3; i++ {
		resp, err := c.Get(url) // clean: closed on the success path, nil on the error path
		if err != nil {
			continue
		}
		resp.Body.Close()
		return nil
	}
	return io.ErrUnexpectedEOF
}
