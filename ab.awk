# ab.awk — the arithmetic of ab.sh, also run on its own by
# TestABSummary (ab_test.go) against the fake runs in testdata/ab/.
#
#   awk -f ab.awk <dir>/<side>.<pair>.<workloads>.txt ...
#
# Each input file is one bench/run.sh stdout; side is "parent" or
# "change". Every line "workload metric value unit ..." is that side's
# sample of the metric in that pair. The summary, one line per workload
# plus a header and a quality line, gives for every metric but the
# quality ones: the parent's and the change's medians over the pairs,
# change/parent, the parent's interquartile range (linear interpolation
# between order statistics), the pairs in which the change was lower out
# of the pairs, and the exact two-sided sign-test p over the pairs that
# did not tie. Every metric bench/run.sh prints is lower-is-better. The
# quality metrics must be identical on both sides of every pair; the exit
# status is 1 when one is not.

function sort(a, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--)
			a[j + 1] = a[j]
		a[j + 1] = x
	}
}

# quantile of the sorted a[1..n] at q in [0, 1].
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q + 1
	lo = int(h)
	if (lo >= n)
		return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}

# signp is the exact two-sided sign-test p of w wins and l losses.
function signp(w, l,    n, k, i, c, s, p) {
	n = w + l
	if (n == 0)
		return 1
	k = w < l ? w : l
	c = 1
	s = 0
	for (i = 0; i <= k; i++) {
		s += c
		c = c * (n - i) / (i + 1)
	}
	p = 2 * s / 2 ^ n
	return p > 1 ? 1 : p
}

BEGIN {
	nq = split("makespan_ratio c1_edges c2_rounds failed_frac", qlist, " ")
	for (i = 1; i <= nq; i++)
		quality[qlist[i]] = 1
}

FNR == 1 {
	nparts = split(FILENAME, path, "/")
	split(path[nparts], name, ".")
	side = name[1]
	pair = name[2] + 0
	if (side != "parent" && side != "change") {
		print "ab.awk: " FILENAME " is not <parent|change>.<pair>.<workloads>.txt" > "/dev/stderr"
		bad = 2
		exit bad
	}
	if (!(pair in paired)) {
		paired[pair] = 1
		npairs++
		pairs[npairs] = pair
	}
}

NF >= 4 && $3 ~ /^[-+]?[0-9.]+([eE][-+]?[0-9]+)?$/ {
	if (!($1 in known)) {
		known[$1] = 1
		nw++
		wls[nw] = $1
	}
	if (!(($1, $2) in metric)) {
		metric[$1, $2] = 1
		nm[$1]++
		mets[$1, nm[$1]] = $2
	}
	val[side, $1, $2, pair] = $3
}

END {
	if (bad)
		exit bad
	sort(pairs, npairs)
	printf "ab: %d pairs, parent first in odd pairs, seed = pair; per metric: parent -> change median (change/parent, parent IQR, change lower in w/n pairs, sign-test p)\n", npairs
	for (i = 1; i <= nw; i++) {
		w = wls[i]
		line = sprintf("%-15s", w)
		for (j = 1; j <= nm[w]; j++) {
			m = mets[w, j]
			if (m in quality)
				continue
			n = wins = losses = 0
			split("", p)
			split("", c)
			for (k = 1; k <= npairs; k++) {
				q = pairs[k]
				if (!(("parent", w, m, q) in val) || !(("change", w, m, q) in val))
					continue
				n++
				p[n] = val["parent", w, m, q] + 0
				c[n] = val["change", w, m, q] + 0
				if (c[n] < p[n])
					wins++
				else if (c[n] > p[n])
					losses++
			}
			if (n == 0)
				continue
			sort(p, n)
			sort(c, n)
			mp = quantile(p, n, 0.5)
			mc = quantile(c, n, 0.5)
			line = line sprintf("  %s %.4g -> %.4g (%s, iqr %.2g, %d/%d, p %.2g)", m, mp, mc,
				mp != 0 ? sprintf("%.3f", mc / mp) : "-", quantile(p, n, 0.75) - quantile(p, n, 0.25), wins, n, signp(wins, losses))
		}
		print line
	}
	differ = ""
	ndiffer = 0
	for (i = 1; i <= nw; i++) {
		w = wls[i]
		for (j = 1; j <= nq; j++) {
			m = qlist[j]
			for (k = 1; k <= npairs; k++) {
				q = pairs[k]
				if (!(("parent", w, m, q) in val) && !(("change", w, m, q) in val))
					continue
				if (val["parent", w, m, q] != val["change", w, m, q]) {
					if (++ndiffer <= 3)
						differ = differ sprintf(" %s %s pair %d: %s vs %s;", w, m, q, val["parent", w, m, q], val["change", w, m, q])
				}
			}
		}
	}
	if (ndiffer) {
		printf "quality: %d differ between the sides of a pair:%s\n", ndiffer, differ
		exit 1
	}
	print "quality: makespan_ratio, c1_edges, c2_rounds and failed_frac identical on every pair"
}
