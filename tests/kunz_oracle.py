"""An independent count of numerical semigroups by genus, in Kunz coordinates.

A numerical semigroup S of multiplicity m is fixed by its Apery set with
respect to m, {0} union {k_i * m + i : 1 <= i <= m - 1}, and so by the
vector (k_1, ..., k_{m-1}) of positive integers.  Its genus is the sum of
the k_i.  A vector of positive integers comes from a semigroup exactly when

  k_i + k_j     >= k_{i+j}      for i + j < m,
  k_i + k_j + 1 >= k_{i+j-m}    for i + j > m,

that is, when the sum of two Apery elements is never below the Apery
element of its residue class (Kunz 1987; Rosales, Garcia-Sanchez,
Garcia-Garcia and Branco, J. London Math. Soc. 2002).  Each k_i >= 1, so
genus g needs m <= g + 1; m = 1 is the semigroup of all nonnegative
integers, genus 0.  The largest Apery element is F + m, so
F = max(k_i * m + i) - m, and S is symmetric exactly when F + 1 = 2g.

The enumeration shares nothing with the genus tree or with numsgp: it
imports nothing from the package and walks the vectors directly.
"""


def census(max_genus):
    """(counts, symmetric): the numbers of numerical semigroups and of
    symmetric ones of genus g, for g in 0..max_genus.  The semigroup of
    all nonnegative integers counts as symmetric at genus 0."""
    counts = [0] * (max_genus + 1)
    symmetric = [0] * (max_genus + 1)
    counts[0] = symmetric[0] = 1
    for m in range(2, max_genus + 2):
        _count_multiplicity(m, max_genus, counts, symmetric)
    return counts, symmetric


def _count_multiplicity(m, max_genus, counts, symmetric):
    """Add to counts[g] the vectors (k_1, ..., k_{m-1}) of sum g <= max_genus
    that satisfy both inequalities, and to symmetric[g] those with
    F + 1 = 2g.

    The coordinates are chosen in the order k_1, k_2, ...  Each inequality
    is tested as soon as its last coordinate is chosen: the first one, whose
    largest index is its right side i + j, when k_{i+j} is chosen; the
    second one, whose right side i + j - m is below both i and j, when the
    larger of k_i and k_j is chosen.
    """
    k = [0] * m

    def extend(i, total, top):
        # top is the largest Apery element so far, F + m at the end
        if i == m:
            counts[total] += 1
            if top - m + 1 == 2 * total:
                symmetric[total] += 1
            return
        # every later coordinate is at least 1
        room = max_genus - total - (m - 1 - i)
        for v in range(1, room + 1):
            if any(k[a] + k[i - a] < v for a in range(1, i)):
                break  # a larger v breaks the same inequality
            k[i] = v
            if all(k[i] + k[j] + 1 >= k[i + j - m]
                   for j in range(max(1, m - i + 1), i + 1)):
                extend(i + 1, total + v, max(top, v * m + i))

    extend(1, 0, 0)
