// Command tacsh runs a TacL agent script, either on a local simulated
// system of -sites sites (default) or injected into a running tacomad
// (with -remote and -peer flags).
//
// Local simulation:
//
//	tacsh -sites 4 -script roam.tacl
//	echo 'bc_push RESULT [expr {6*7}]' | tacsh
//
// Against daemons:
//
//	tacsh -remote site-0 -peer site-0=127.0.0.1:7100 -script hello.tacl
//
// Guarded deployments: -auth-secret speaks the TCP handshake of daemons
// started with the same secret, and -sign name=hexkey signs the agent's
// briefcase so firewall daemons that enrolled the same key admit it
// (-home names the site billing records should return to).
//
// The final briefcase is printed folder by folder.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/guard"
	"repro/internal/vnet"
)

func main() {
	log.SetFlags(0)
	sites := flag.Int("sites", 3, "number of simulated sites (local mode)")
	script := flag.String("script", "", "script file ('-' or empty reads stdin)")
	remote := flag.String("remote", "", "inject at this remote site instead of simulating")
	timeout := flag.Duration("timeout", 30*time.Second, "overall deadline")
	authSecret := flag.String("auth-secret", "", "hex-encoded shared TCP authentication secret (remote mode)")
	sign := flag.String("sign", "", "principal=hexkey: sign the briefcase before injecting (remote mode)")
	home := flag.String("home", "", "HOME site recorded in the signed briefcase (billing return address)")
	var peers peerList
	flag.Var(&peers, "peer", "peer site as name=host:port (repeatable, remote mode)")
	flag.Parse()

	src, err := readScript(*script)
	if err != nil {
		log.Fatalf("tacsh: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var bc *folder.Briefcase
	if *remote == "" {
		bc, err = runLocal(ctx, *sites, src)
	} else {
		bc, err = runRemote(ctx, *remote, peers, src, *authSecret, *sign, *home)
	}
	if err != nil {
		log.Fatalf("tacsh: %v", err)
	}
	printBriefcase(bc)
}

func readScript(path string) (string, error) {
	if path == "" || path == "-" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(path)
	return string(data), err
}

func runLocal(ctx context.Context, n int, src string) (*folder.Briefcase, error) {
	if n < 1 {
		return nil, fmt.Errorf("need at least one site")
	}
	sys := core.NewSystem(n, core.SystemConfig{})
	sys.FullMesh()
	defer sys.Wait()
	return core.RunScript(ctx, sys.SiteAt(0), src, nil)
}

func runRemote(ctx context.Context, at string, peers peerList, src, authSecret, sign, home string) (*folder.Briefcase, error) {
	ep, err := vnet.NewTCPEndpoint("tacsh-client", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	if authSecret != "" {
		key, err := hex.DecodeString(authSecret)
		if err != nil {
			return nil, fmt.Errorf("bad -auth-secret: %w", err)
		}
		ep.SetAuthKey(key)
	}
	for _, p := range peers {
		name, addr, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("peer must be name=host:port, got %q", p)
		}
		ep.AddPeer(vnet.SiteID(name), addr)
	}
	client := core.NewSite(ep, core.SiteConfig{})
	bc := folder.NewBriefcase()
	if sign != "" {
		principal, hexKey, ok := strings.Cut(sign, "=")
		if !ok {
			return nil, fmt.Errorf("-sign must be principal=hexkey, got %q", sign)
		}
		key, err := hex.DecodeString(hexKey)
		if err != nil {
			return nil, fmt.Errorf("bad -sign key for %q: %w", principal, err)
		}
		keys := guard.NewKeyring()
		keys.Add(principal, key)
		if bc, err = guard.SignedScript(keys, principal, home, src, bc); err != nil {
			return nil, err
		}
	} else {
		bc.Ensure(folder.CodeFolder).PushString(src)
	}
	if err := client.Meet(ctx, core.AgTacl, bc, core.At(vnet.SiteID(at))); err != nil {
		return nil, err
	}
	return bc, nil
}

func printBriefcase(bc *folder.Briefcase) {
	for _, name := range bc.Names() {
		f, err := bc.Folder(name)
		if err != nil {
			continue
		}
		fmt.Printf("%s (%d):\n", name, f.Len())
		for _, e := range f.Strings() {
			fmt.Printf("  %s\n", strings.ReplaceAll(e, "\n", "\n  "))
		}
	}
}

type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error {
	*p = append(*p, v)
	return nil
}
