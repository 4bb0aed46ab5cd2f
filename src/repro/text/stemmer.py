"""A from-scratch implementation of the Porter stemming algorithm.

Porter, M.F. (1980), *An algorithm for suffix stripping*.  The implementation
follows the original five-step description; it is intentionally dependency
free so the reproduction is self-contained.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, index: int) -> bool:
    """Return True when the character at *index* acts as a consonant."""
    ch = word[index]
    if ch in _VOWELS:
        return False
    if ch == "y":
        if index == 0:
            return True
        return not _is_consonant(word, index - 1)
    return True


def _measure(stem: str) -> int:
    """Return m, the number of VC sequences in *stem* ([C](VC)^m[V])."""
    forms = []
    for i in range(len(stem)):
        forms.append("c" if _is_consonant(stem, i) else "v")
    collapsed = "".join(forms)
    # collapse runs
    run = []
    for ch in collapsed:
        if not run or run[-1] != ch:
            run.append(ch)
    pattern = "".join(run)
    return pattern.count("vc")


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """True for a consonant-vowel-consonant ending where the final consonant
    is not w, x or y (the *o condition of Porter's paper)."""
    if len(word) < 3:
        return False
    if not _is_consonant(word, len(word) - 1):
        return False
    if _is_consonant(word, len(word) - 2):
        return False
    if not _is_consonant(word, len(word) - 3):
        return False
    return word[-1] not in "wxy"


#: Shared word -> stem memo.  Stemming is a pure function of the token, so
#: one process-wide cache is safe for every :class:`PorterStemmer`
#: instance; corpora draw from a bounded vocabulary, so the hit rate in the
#: serving hot path is high (profiling put stemming at ~25% of a classify
#: call before the memo).  Cleared wholesale when it reaches
#: :data:`_STEM_CACHE_CAP` entries -- a crude bound, but stems are tiny and
#: the cap is far above any realistic vocabulary.
_STEM_CACHE: dict = {}
_STEM_CACHE_CAP = 1 << 18


class PorterStemmer:
    """Stateless Porter stemmer; use :meth:`stem` or the module-level helper."""

    # ------------------------------------------------------------------ #
    def stem(self, word: str) -> str:
        """Return the Porter stem of *word* (already lower-cased tokens)."""
        if len(word) <= 2:
            return word
        cached = _STEM_CACHE.get(word)
        if cached is not None:
            return cached
        stemmed = self._stem_uncached(word)
        if len(_STEM_CACHE) >= _STEM_CACHE_CAP:
            _STEM_CACHE.clear()
        _STEM_CACHE[word] = stemmed
        return stemmed

    def _stem_uncached(self, word: str) -> str:
        """The memo-less Porter pipeline (steps 1a through 5b)."""
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- step 1 ----------------------------------------------------------- #
    @staticmethod
    def _step1a(word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            if _measure(stem) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
                return word[:-1]
            if _measure(word) == 1 and _ends_cvc(word):
                return word + "e"
        return word

    @staticmethod
    def _step1c(word: str) -> str:
        if word.endswith("y") and _contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    # -- step 2 ----------------------------------------------------------- #
    _STEP2_SUFFIXES = [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ]

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    # -- step 3 ----------------------------------------------------------- #
    _STEP3_SUFFIXES = [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ]

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    # -- step 4 ----------------------------------------------------------- #
    _STEP4_SUFFIXES = [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                if _measure(stem) > 1:
                    return stem
                return word
        return word

    # -- step 5 ----------------------------------------------------------- #
    @staticmethod
    def _step5a(word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = _measure(stem)
            if m > 1:
                return stem
            if m == 1 and not _ends_cvc(stem):
                return stem
        return word

    @staticmethod
    def _step5b(word: str) -> str:
        if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word


_DEFAULT_STEMMER = PorterStemmer()


def stem(word: str) -> str:
    """Stem a single token with the module-level :class:`PorterStemmer`."""
    return _DEFAULT_STEMMER.stem(word)
