"""Width-sensitive frequent batch auctions with a commit-reveal escrow
protocol over a simulated chain, plus the rational-agent analysis harness."""
