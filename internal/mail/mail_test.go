package mail

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
)

func mailSystem(t *testing.T, n int) *core.System {
	t.Helper()
	sys := core.NewSystem(n, core.SystemConfig{Seed: 9, CallTimeout: 50 * time.Millisecond})
	for i := 0; i < n; i++ {
		InstallMailbox(sys.SiteAt(i))
	}
	t.Cleanup(sys.Wait)
	return sys
}

func TestMessageEncodeDecode(t *testing.T) {
	m := Message{From: "dag@site-0", To: "fred@site-1", Subject: "agents", Body: "line1\nline2 | with pipes"}
	back, err := ParseMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round trip: %+v vs %+v", back, m)
	}
	if _, err := ParseMessage("no separators at all"); err == nil {
		t.Fatal("malformed message parsed")
	}
}

func TestAddress(t *testing.T) {
	u, s, err := Address("robbert@site-2")
	if err != nil || u != "robbert" || s != "site-2" {
		t.Fatalf("Address = %q, %q, %v", u, s, err)
	}
	for _, bad := range []string{"", "nosite", "@site", "user@"} {
		if _, _, err := Address(bad); err == nil {
			t.Errorf("Address(%q) succeeded", bad)
		}
	}
}

func TestSendAndRead(t *testing.T) {
	sys := mailSystem(t, 3)
	msg := Message{From: "dag@site-0", To: "fred@site-2", Subject: "hello", Body: "greetings from Tromso"}
	if err := Send(context.Background(), sys.SiteAt(0), msg, false); err != nil {
		t.Fatal(err)
	}
	headers, err := List(context.Background(), sys.SiteAt(0), "fred", "site-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 1 || headers[0].Subject != "hello" {
		t.Fatalf("headers = %v", headers)
	}
	got, err := Fetch(context.Background(), sys.SiteAt(0), "fred", "site-2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != msg {
		t.Fatalf("fetched %+v", got)
	}
}

func TestSendWithReceipt(t *testing.T) {
	sys := mailSystem(t, 2)
	msg := Message{From: "dag@site-0", To: "fred@site-1", Subject: "rsvp", Body: "please confirm"}
	if err := Send(context.Background(), sys.SiteAt(0), msg, true); err != nil {
		t.Fatal(err)
	}
	// The message agent came back and deposited a receipt for dag.
	receipts := Receipts(sys.SiteAt(0), "dag")
	if len(receipts) != 1 {
		t.Fatalf("receipts = %v", receipts)
	}
	// And the message itself was delivered.
	headers, err := List(context.Background(), sys.SiteAt(0), "fred", "site-1")
	if err != nil || len(headers) != 1 {
		t.Fatalf("headers = %v, %v", headers, err)
	}
}

func TestSendSameSite(t *testing.T) {
	sys := mailSystem(t, 1)
	msg := Message{From: "a@site-0", To: "b@site-0", Subject: "local", Body: "x"}
	if err := Send(context.Background(), sys.SiteAt(0), msg, false); err != nil {
		t.Fatal(err)
	}
	headers, err := List(context.Background(), sys.SiteAt(0), "b", "site-0")
	if err != nil || len(headers) != 1 {
		t.Fatalf("headers = %v, %v", headers, err)
	}
}

func TestSendValidation(t *testing.T) {
	sys := mailSystem(t, 2)
	cases := []Message{
		{From: "bad-address", To: "b@site-1"},
		{From: "a@site-1", To: "b@site-0"}, // sender not at injection site
		{From: "a@site-0", To: "nowhere"},
	}
	for _, msg := range cases {
		if err := Send(context.Background(), sys.SiteAt(0), msg, false); err == nil {
			t.Errorf("Send(%+v) succeeded", msg)
		}
	}
}

func TestMultipleMessagesOrdered(t *testing.T) {
	sys := mailSystem(t, 2)
	for i, subj := range []string{"first", "second", "third"} {
		msg := Message{From: "a@site-0", To: "b@site-1", Subject: subj, Body: strings.Repeat("x", i)}
		if err := Send(context.Background(), sys.SiteAt(0), msg, false); err != nil {
			t.Fatal(err)
		}
	}
	headers, err := List(context.Background(), sys.SiteAt(0), "b", "site-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 3 || headers[0].Subject != "first" || headers[2].Subject != "third" {
		t.Fatalf("headers = %v", headers)
	}
}

func TestDelete(t *testing.T) {
	sys := mailSystem(t, 2)
	for _, subj := range []string{"keep-0", "remove", "keep-1"} {
		msg := Message{From: "a@site-0", To: "b@site-1", Subject: subj, Body: "."}
		if err := Send(context.Background(), sys.SiteAt(0), msg, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := Delete(context.Background(), sys.SiteAt(0), "b", "site-1", 1); err != nil {
		t.Fatal(err)
	}
	headers, _ := List(context.Background(), sys.SiteAt(0), "b", "site-1")
	if len(headers) != 2 {
		t.Fatalf("headers = %v", headers)
	}
	for _, h := range headers {
		if h.Subject == "remove" {
			t.Fatalf("deleted message still listed: %v", headers)
		}
	}
	if err := Delete(context.Background(), sys.SiteAt(0), "b", "site-1", 99); err == nil {
		t.Fatal("delete of missing index succeeded")
	}
}

func TestFetchErrors(t *testing.T) {
	sys := mailSystem(t, 2)
	if _, err := Fetch(context.Background(), sys.SiteAt(0), "nobody", "site-1", 0); err == nil {
		t.Fatal("fetch from empty mailbox succeeded")
	}
}

func TestMailboxSeparatesUsers(t *testing.T) {
	sys := mailSystem(t, 2)
	a := Message{From: "x@site-0", To: "alice@site-1", Subject: "for alice", Body: "."}
	b := Message{From: "x@site-0", To: "bob@site-1", Subject: "for bob", Body: "."}
	if err := Send(context.Background(), sys.SiteAt(0), a, false); err != nil {
		t.Fatal(err)
	}
	if err := Send(context.Background(), sys.SiteAt(0), b, false); err != nil {
		t.Fatal(err)
	}
	ha, _ := List(context.Background(), sys.SiteAt(0), "alice", "site-1")
	hb, _ := List(context.Background(), sys.SiteAt(0), "bob", "site-1")
	if len(ha) != 1 || len(hb) != 1 {
		t.Fatalf("alice=%v bob=%v", ha, hb)
	}
	if ha[0].Subject != "for alice" || hb[0].Subject != "for bob" {
		t.Fatalf("crossed mailboxes: alice=%v bob=%v", ha, hb)
	}
}

func TestMailboxOpValidation(t *testing.T) {
	sys := mailSystem(t, 1)
	site := sys.SiteAt(0)
	// Unknown op.
	bc := newBC("explode", "u")
	if err := site.Meet(context.Background(), AgMailbox, bc); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Deposit of malformed message.
	bc = newBC("deposit", "u")
	bc.PutString(MsgFolder, "garbage-without-separators")
	if err := site.Meet(context.Background(), AgMailbox, bc); err == nil {
		t.Fatal("malformed deposit accepted")
	}
}

func newBC(op, user string) *folder.Briefcase {
	bc := folder.NewBriefcase()
	bc.PutString(OpFolder, op)
	bc.PutString(UserFolder, user)
	return bc
}

func TestDepositWakesParkedAgent(t *testing.T) {
	// A resident agent parks watching fred's mailbox folder; depositing
	// mail must wake it — no polling goroutine anywhere in between.
	sys := mailSystem(t, 2)
	site := sys.SiteAt(1)
	script := `
		if {![bc_has PARK_HOP]} {
			park fred-watcher MBOX:fred
		}
		cab_append WOKE [cab_len MBOX:fred]
	`
	if _, err := core.RunScript(context.Background(), site, script, nil); err != nil {
		t.Fatal(err)
	}
	if !site.IsParked("fred-watcher") || site.ParkedCount() != 1 {
		t.Fatalf("watcher not parked: count=%d", site.ParkedCount())
	}
	msg := Message{From: "dag@site-0", To: "fred@site-1", Subject: "wake up", Body: "."}
	if err := Send(context.Background(), sys.SiteAt(0), msg, false); err != nil {
		t.Fatal(err)
	}
	sys.Wait() // the wakeup is tracked scheduler work; quiesce covers it
	woke := site.Cabinet().Snapshot("WOKE").Strings()
	if len(woke) != 1 || woke[0] != "1" {
		t.Fatalf("WOKE = %v", woke)
	}
	if site.IsParked("fred-watcher") {
		t.Fatal("watcher still parked after its script completed")
	}
}

func TestMessageBodyWithTaclSpecials(t *testing.T) {
	// Message bodies travel inside a TacL agent's briefcase: braces,
	// brackets, dollars, and quotes must survive untouched because
	// folders are uninterpreted bytes, never re-parsed as code.
	sys := mailSystem(t, 2)
	msg := Message{
		From:    "a@site-0",
		To:      "b@site-1",
		Subject: `tricky {subject} [with] "specials"`,
		Body:    "set x $injection; [error boom] \\ {unbalanced",
	}
	if err := Send(context.Background(), sys.SiteAt(0), msg, true); err != nil {
		t.Fatal(err)
	}
	got, err := Fetch(context.Background(), sys.SiteAt(0), "b", "site-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != msg {
		t.Fatalf("message mangled:\n%+v\nvs\n%+v", got, msg)
	}
}
